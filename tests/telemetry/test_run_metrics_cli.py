"""End-to-end CLI contract: ``repro run --metrics`` writes loadable
artifacts, prints the first-replication summary, and the exported
exposition passes the OpenMetrics grammar check."""

import os
import subprocess
import sys

import pytest

from repro.telemetry.cli import main as metrics_main
from repro.telemetry.export import (load_metrics_jsonl,
                                    validate_openmetrics)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _repro(argv, tmp):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    env.pop("REPRO_METRICS_DIR", None)
    env.pop("REPRO_TRACE_DIR", None)
    return subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        capture_output=True, text=True, env=env, cwd=str(tmp))


@pytest.fixture(scope="module")
def metered_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("metrics-cli")
    metrics_dir = tmp / "metrics"
    result = _repro(
        ["run", "--mode", "local", "--transactions", "15",
         "--replications", "2", "--comm-delay", "1.0",
         "--cache-dir", str(tmp / "cache"),
         "--metrics", str(metrics_dir)], tmp)
    assert result.returncode == 0, result.stderr
    return result, metrics_dir


def test_run_metrics_writes_one_artifact_per_replication(metered_run):
    __, metrics_dir = metered_run
    artifacts = sorted(metrics_dir.glob("*.metrics.jsonl"))
    assert len(artifacts) == 2
    for artifact in artifacts:
        document = load_metrics_jsonl(str(artifact))
        assert document["series"]
        assert document["meta"]["wall_s"] >= 0.0


def test_run_metrics_prints_summary(metered_run):
    result, __ = metered_run
    assert "[metrics] first replication artifact:" in result.stdout
    assert "series" in result.stdout


def test_exported_exposition_is_spec_valid(metered_run, tmp_path):
    __, metrics_dir = metered_run
    artifact = sorted(metrics_dir.glob("*.metrics.jsonl"))[0]
    page = str(tmp_path / "run.prom")
    assert metrics_main(["export", str(artifact), "-o", page]) == 0
    with open(page, "r", encoding="utf-8") as stream:
        assert validate_openmetrics(stream.read()) == []


def test_sweep_prune_model_progress_ends_with_the_finish_frame(
        tmp_path_factory):
    # Captured stderr is not a TTY: one joined line per frame, the
    # last one carrying what the whole run did.
    tmp = tmp_path_factory.mktemp("progress-cli")
    result = _repro(
        ["sweep", "--prune-model", "--sizes", "2,4", "--protocols", "C",
         "--replications", "1", "--cache-dir", str(tmp / "cache"),
         "--progress"], tmp)
    assert result.returncode == 0, result.stderr
    assert "[pruned 1/2 configs" in result.stdout
    frame = result.stderr.splitlines()[-1]
    assert frame.startswith("[exec] 1/1 units")
    for fact in ("utilization ", "unit mean ", "unit wall total ",
                 " MB"):
        assert fact in frame, fact
