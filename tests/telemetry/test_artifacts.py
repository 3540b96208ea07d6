"""Per-run metrics artifacts via the exec worker.

``execute_config`` under ``REPRO_METRICS_DIR`` must (a) leave the
summary row bitwise identical to an unmetered run, and (b) drop a
loadable ``<fingerprint>.metrics.jsonl`` artifact whose meta carries
the host telemetry (wall seconds, peak RSS, batch size).
"""

import pytest

from repro.core.config import SingleSiteConfig, WorkloadConfig
from repro.exec.fingerprint import config_fingerprint
from repro.exec.worker import execute_config
from repro.trace.export import load_jsonl
from repro.telemetry import ENV_METRICS_DIR
from tests.conftest import metered

CONFIG = SingleSiteConfig(
    protocol="C", db_size=60, seed=5,
    workload=WorkloadConfig(n_transactions=20, mean_interarrival=3.0,
                            transaction_size=4, size_jitter=1,
                            read_only_fraction=0.25))


@pytest.fixture()
def metrics_dir(tmp_path, monkeypatch):
    target = tmp_path / "metrics"
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    monkeypatch.setenv(ENV_METRICS_DIR, str(target))
    return target


def test_metered_row_is_bitwise_identical(metrics_dir, monkeypatch):
    monkeypatch.delenv(ENV_METRICS_DIR)
    plain = execute_config(CONFIG)
    monkeypatch.setenv(ENV_METRICS_DIR, str(metrics_dir))
    metered = execute_config(CONFIG)
    assert metered == plain


def test_artifact_written_with_host_meta(metrics_dir):
    execute_config(CONFIG, batch=3)
    stem = config_fingerprint(CONFIG)
    artifact = metrics_dir / f"{stem}.metrics.jsonl"
    assert sorted(metrics_dir.iterdir()) == [artifact]
    meta, series = load_jsonl(str(artifact))
    assert meta["fingerprint"] == stem
    assert meta["seed"] == CONFIG.seed
    assert meta["batch"] == 3
    assert meta["wall_s"] >= 0.0
    assert meta["series"] == len(series) > 0
    # peak_rss_kb is None only off-POSIX; on either platform the key
    # must be present in the artifact meta.
    assert "peak_rss_kb" in meta


def test_worker_uninstalls_registry_after_run(metrics_dir):
    execute_config(CONFIG)
    assert metered() == []
