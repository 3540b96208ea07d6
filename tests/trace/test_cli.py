"""End-to-end CLI contract: ``repro run --trace`` produces a loadable
artifact, the breakdown sums to the measured response time, and
``repro report`` honours its exit-status contract on a trace."""

import json
import math
import os
import subprocess
import sys

import pytest

from repro.trace.export import (load_jsonl, validate_chrome_document,
                                write_jsonl)
from repro.trace.report import main as report_main

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _repro(argv, tmp):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    env.pop("REPRO_TRACE_DIR", None)
    return subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        capture_output=True, text=True, env=env, cwd=str(tmp))


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace-cli")
    trace_dir = tmp / "traces"
    result = _repro(
        ["run", "--mode", "local", "--transactions", "15",
         "--replications", "1", "--comm-delay", "1.0",
         "--cache-dir", str(tmp / "cache"),
         "--trace", str(trace_dir), "--profile"], tmp)
    assert result.returncode == 0, result.stderr
    return result, trace_dir


def _single_artifact(trace_dir, suffix):
    found = sorted(str(p) for p in trace_dir.glob("*" + suffix))
    assert len(found) == 1, found
    return found[0]


def test_run_trace_writes_the_jsonl_only(traced_run):
    __, trace_dir = traced_run
    artifact = _single_artifact(trace_dir, ".trace.jsonl")
    assert os.listdir(trace_dir) == [os.path.basename(artifact)]


def test_run_trace_prints_breakdown_and_profile(traced_run):
    result, __ = traced_run
    assert "[trace] first replication artifact:" in result.stdout
    assert "per-transaction blocking breakdown" in result.stdout
    assert "[profile] top-5 hottest lock objects:" in result.stdout
    assert "longest inversion spans:" in result.stdout


def test_chrome_artifact_is_valid(traced_run, tmp_path, capsys):
    __, trace_dir = traced_run
    document_path = str(tmp_path / "run.trace.json")
    artifact = _single_artifact(trace_dir, ".trace.jsonl")
    assert report_main([artifact, "--chrome", document_path]) == 0
    with open(document_path, "r", encoding="utf-8") as stream:
        document = json.load(stream)
    assert validate_chrome_document(document) == []
    assert document["traceEvents"]
    assert "events exported" in capsys.readouterr().out


def test_breakdown_sums_to_response_on_real_artifact(traced_run):
    # The acceptance criterion: per-transaction components sum to the
    # measured response time within rounding.
    __, trace_dir = traced_run
    from repro.trace.events import TraceEvent
    from repro.trace.timeline import reconstruct
    meta, records = load_jsonl(_single_artifact(trace_dir,
                                                ".trace.jsonl"))
    run = reconstruct([TraceEvent.from_dict(r) for r in records],
                      dropped=int(meta.get("dropped", 0)))
    decomposed = 0
    for timeline in run.transactions.values():
        breakdown = timeline.breakdown()
        if breakdown is None:
            continue
        decomposed += 1
        parts = (breakdown["direct"] + breakdown["ceiling"]
                 + breakdown["network"] + breakdown["other"])
        assert math.isclose(parts, breakdown["response"],
                            rel_tol=0.0, abs_tol=1e-6)
    assert decomposed > 0
    assert meta["events"] == run.events_seen


# ----------------------------------------------------------------------
# repro report on a trace (in-process: exit codes + output)
# ----------------------------------------------------------------------
def test_trace_summarize_and_export_and_validate(traced_run, tmp_path,
                                                 capsys):
    __, trace_dir = traced_run
    artifact = _single_artifact(trace_dir, ".trace.jsonl")
    assert report_main([artifact, "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "per-transaction blocking breakdown" in out
    assert "run totals:" in out
    assert "trace_direct_blocking" in out

    assert report_main([artifact, "--json"]) == 0
    overlay = json.loads(capsys.readouterr().out)
    assert overlay["trace_transactions"] > 0

    # --chrome validates what it built and writes only a valid document.
    exported = tmp_path / "out.trace.json"
    assert report_main([artifact, "--chrome", str(exported)]) == 0
    assert validate_chrome_document(json.loads(exported.read_text())) \
        == []


def test_trace_subcommand_error_paths(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        report_main([])
    assert excinfo.value.code == 2
    assert report_main([str(tmp_path / "missing.jsonl")]) == 1
    # A trace whose event time is not finite builds a Chrome document
    # that fails validation: nothing is written, exit 1.
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text(json.dumps({"meta": {"trace_version": 1}}) + "\n"
                   + json.dumps({"t": float("nan"), "kind": "msg_send",
                                 "site": 0, "tid": 1}) + "\n")
    out = tmp_path / "bad.trace.json"
    capsys.readouterr()
    assert report_main([str(bad), "--chrome", str(out)]) == 1
    assert "bad ts" in capsys.readouterr().err
    assert not out.exists()


def test_summarize_rejects_a_negative_top(traced_run, capsys):
    artifact = _single_artifact(traced_run[1], ".trace.jsonl")
    assert report_main([artifact, "--top", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --top must be >= 0\n")
    assert report_main([artifact, "--top", "0"]) == 0
    assert "raise --top to see them" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_report_into_a_closed_pipe_is_quiet(traced_run, tmp_path, extra):
    # `repro report A | grep -q X`: the reader leaves at its first
    # match, and the rest of the report has nowhere to go — no error.
    artifact = _single_artifact(traced_run[1], ".trace.jsonl")
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro", "report", artifact] + extra,
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            cwd=str(tmp_path))
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, "")


def test_report_diff_of_one_seeded_unit_run_twice(traced_run, tmp_path,
                                                  capsys):
    __, trace_dir = traced_run
    artifact = _single_artifact(trace_dir, ".trace.jsonl")
    again = tmp_path / "again"
    result = _repro(
        ["run", "--mode", "local", "--transactions", "15",
         "--replications", "1", "--comm-delay", "1.0", "--no-cache",
         "--trace", str(again)], tmp_path)
    assert result.returncode == 0, result.stderr
    rerun = str(again / os.path.basename(artifact))
    assert report_main([artifact, "--diff", rerun]) == 0
    assert "identical:" in capsys.readouterr().out
    # One event moved: a differing artifact exits 1 and names it.
    meta, records = load_jsonl(rerun)
    records[3]["t"] += 1.0
    write_jsonl(rerun, meta, records)
    assert report_main([artifact, "--diff", rerun]) == 1
    assert capsys.readouterr().out.startswith("record 4: ")


def test_profile_requires_trace(tmp_path):
    result = _repro(["run", "--mode", "local", "--profile"], tmp_path)
    assert result.returncode == 2
    assert "--profile requires --trace" in result.stderr
