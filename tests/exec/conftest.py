"""Shared fixtures for the execution-engine tests."""

import pytest

from repro.core.config import (SingleSiteConfig, TimingConfig,
                               WorkloadConfig)


def tiny_config(protocol="C", seed=7, **overrides):
    workload = dict(n_transactions=15, mean_interarrival=10.0,
                    transaction_size=3)
    workload.update(overrides)
    return SingleSiteConfig(protocol=protocol, db_size=50,
                            workload=WorkloadConfig(**workload),
                            timing=TimingConfig(slack_factor=10.0),
                            seed=seed)


@pytest.fixture
def config():
    return tiny_config()


@pytest.fixture(autouse=True)
def clean_exec_env(monkeypatch):
    """Engine knobs must come from the test, not the outer shell."""
    for var in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_NO_CACHE",
                "REPRO_CACHE_SALT", "REPRO_EXEC_INJECT",
                "REPRO_EXEC_RETRIES"):
        monkeypatch.delenv(var, raising=False)
