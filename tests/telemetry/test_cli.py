"""``repro metrics`` subcommand exit-status and output contract."""

import json

import pytest

from repro.telemetry.cli import main as metrics_main
from repro.telemetry.export import write_metrics_jsonl
from repro.telemetry.registry import MetricsRegistry


@pytest.fixture()
def artifact(tmp_path):
    registry = MetricsRegistry(window=10.0, meta={"seed": 3})
    counter = registry.counter("cc.grants", "grants",
                               labels={"waited": "no"})
    counter.inc(1.0)
    counter.inc(12.0)
    hist = registry.histogram("cc.wait_time", bounds=(1.0, 4.0))
    hist.observe(2.0, 0.5)
    registry.finalize()
    path = str(tmp_path / "run.metrics.jsonl")
    write_metrics_jsonl(registry.dump(), path)
    return path


def test_summarize(artifact, capsys):
    assert metrics_main(["summarize", artifact]) == 0
    out = capsys.readouterr().out
    assert "2 series" in out
    assert "cc.grants{waited=no}" in out


def test_summarize_json(artifact, capsys):
    assert metrics_main(["summarize", artifact, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["name"] for row in rows] == ["cc.grants",
                                             "cc.wait_time"]


def test_diff_identical_artifacts(artifact, capsys):
    assert metrics_main(["diff", artifact, artifact]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_differing_artifacts_exits_1(artifact, tmp_path, capsys):
    registry = MetricsRegistry(window=10.0)
    other = registry.counter("cc.grants", labels={"waited": "no"})
    other.inc(1.0)
    registry.finalize()
    second = str(tmp_path / "other.metrics.jsonl")
    write_metrics_jsonl(registry.dump(), second)
    assert metrics_main(["diff", artifact, second]) == 1
    out = capsys.readouterr().out
    assert "only in left" in out or "final" in out


def test_no_action_exits_2(capsys):
    assert metrics_main([]) == 2


def test_missing_artifact_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.metrics.jsonl")
    assert metrics_main(["summarize", missing]) == 1
    assert "error:" in capsys.readouterr().err
