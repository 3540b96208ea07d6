"""End-to-end CLI contract: ``repro run --trace`` produces loadable
artifacts, the breakdown sums to the measured response time, and the
``repro trace`` subcommands honour their exit-status contract."""

import json
import math
import os
import subprocess
import sys

import pytest

from repro.trace.cli import main as trace_main

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


def test_run_trace_writes_both_artifacts(traced_run):
    __, trace_dir = traced_run
    _single_artifact(trace_dir, ".trace.jsonl")
    _single_artifact(trace_dir, ".trace.json")


def test_run_trace_prints_breakdown_and_profile(traced_run):
    result, __ = traced_run
    assert "[trace] first replication artifact:" in result.stdout
    assert "per-transaction blocking breakdown" in result.stdout
    assert "[profile] top-5 hottest lock objects:" in result.stdout
    assert "longest inversion spans:" in result.stdout


def test_chrome_artifact_is_valid(traced_run):
    __, trace_dir = traced_run
    document_path = _single_artifact(trace_dir, ".trace.json")
    with open(document_path, "r", encoding="utf-8") as stream:
        document = json.load(stream)
    from repro.trace.export import validate_chrome_document
    assert validate_chrome_document(document) == []
    assert document["traceEvents"]


def test_breakdown_sums_to_response_on_real_artifact(traced_run):
    # The acceptance criterion: per-transaction components sum to the
    # measured response time within rounding.
    __, trace_dir = traced_run
    from repro.trace.export import load_jsonl
    from repro.trace.timeline import reconstruct
    meta, events = load_jsonl(_single_artifact(trace_dir,
                                               ".trace.jsonl"))
    run = reconstruct(events, dropped=int(meta.get("dropped", 0)))
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
# repro trace subcommands (in-process: exit codes + output)
# ----------------------------------------------------------------------
def test_trace_summarize_and_export_and_validate(traced_run, tmp_path,
                                                 capsys):
    __, trace_dir = traced_run
    artifact = _single_artifact(trace_dir, ".trace.jsonl")
    assert trace_main(["summarize", artifact, "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "per-transaction blocking breakdown" in out
    assert "run totals:" in out
    assert "trace_direct_blocking" in out

    assert trace_main(["summarize", artifact, "--json"]) == 0
    overlay = json.loads(capsys.readouterr().out)
    assert overlay["trace_transactions"] > 0

    exported = str(tmp_path / "out.trace.json")
    assert trace_main(["export", artifact, "-o", exported]) == 0
    capsys.readouterr()
    assert trace_main(["validate", exported]) == 0
    assert "OK" in capsys.readouterr().out


def test_trace_subcommand_error_paths(tmp_path, capsys):
    assert trace_main([]) == 2
    assert trace_main(["summarize", str(tmp_path / "missing.jsonl")]) \
        == 1
    bad = tmp_path / "bad.trace.json"
    bad.write_text(json.dumps({"traceEvents": [
        {"ph": "Z", "name": "x", "pid": 0, "tid": 0, "ts": 0.0}]}))
    assert trace_main(["validate", str(bad)]) == 1
    assert "unknown phase" in capsys.readouterr().err


def test_summarize_rejects_a_negative_top(traced_run, capsys):
    artifact = _single_artifact(traced_run[1], ".trace.jsonl")
    assert trace_main(["summarize", artifact, "--top", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --top must be >= 0\n")
    assert trace_main(["summarize", artifact, "--top", "0"]) == 0
    assert "raise --top to see them" in capsys.readouterr().out


def test_profile_requires_trace(tmp_path):
    result = _repro(["run", "--mode", "local", "--profile"], tmp_path)
    assert result.returncode == 2
    assert "--profile requires --trace" in result.stderr
