"""``repro report`` exit-status and output contract on a metrics
artifact."""

import json

import pytest

from repro.telemetry.registry import MetricsRegistry
from repro.trace.export import metrics_artifact, write_jsonl
from repro.trace.report import main as report_main


@pytest.fixture()
def artifact(tmp_path):
    registry = MetricsRegistry(meta={"seed": 3})
    counter = registry.counter("cc.grants", "grants",
                               labels={"waited": "no"})
    counter.inc(1.0)
    registry.close_windows(62.0)
    counter.inc(62.0)
    hist = registry.histogram("cc.wait_time")
    hist.observe(2.0, 0.5)
    registry.finalize()
    path = str(tmp_path / "run.metrics.jsonl")
    write_jsonl(path, *metrics_artifact(registry.dump()))
    return path


def test_summarize(artifact, capsys):
    assert report_main([artifact]) == 0
    out = capsys.readouterr().out
    assert "2 series" in out
    assert "cc.grants{waited=no}" in out


def test_summarize_json(artifact, capsys):
    assert report_main([artifact, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["name"] for row in rows] == ["cc.grants",
                                             "cc.wait_time"]


def test_diff_identical_artifacts(artifact, capsys):
    assert report_main([artifact, "--diff", artifact]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_differing_artifacts_exits_1(artifact, tmp_path, capsys):
    registry = MetricsRegistry()
    other = registry.counter("cc.grants", labels={"waited": "no"})
    other.inc(1.0)
    registry.finalize()
    second = str(tmp_path / "other.metrics.jsonl")
    write_jsonl(second, *metrics_artifact(registry.dump()))
    assert report_main([artifact, "--diff", second]) == 1
    out = capsys.readouterr().out
    assert "record 1: cc.grants{waited=no}" in out
    assert "2 records vs 1" in out


def test_no_action_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        report_main([])
    assert excinfo.value.code == 2


def test_trace_only_flags_are_a_usage_error(artifact, tmp_path, capsys):
    chrome = tmp_path / "run.trace.json"
    assert report_main([artifact, "--chrome", str(chrome)]) == 2
    assert report_main([artifact, "--profile"]) == 2
    assert "reads a trace artifact" in capsys.readouterr().err
    assert not chrome.exists()


def test_the_header_not_the_name_gives_the_kind(artifact, tmp_path,
                                                capsys):
    renamed = tmp_path / "run.trace.jsonl"
    renamed.write_text(open(artifact, encoding="utf-8").read())
    assert report_main([str(renamed)]) == 0
    assert "2 series" in capsys.readouterr().out
    headless = tmp_path / "headless.jsonl"
    headless.write_text('{"meta": {}}\n')
    assert report_main([str(headless)]) == 1
    assert "neither trace_version nor metrics_version" in \
        capsys.readouterr().err


def test_missing_artifact_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.metrics.jsonl")
    assert report_main([missing]) == 1
    assert "error:" in capsys.readouterr().err
