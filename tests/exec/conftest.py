"""Shared fixtures for the execution-engine tests."""

import multiprocessing
import os

import pytest

from repro.core.config import (SingleSiteConfig, TimingConfig,
                               WorkloadConfig)
from repro.exec import worker

#: Pool workers inherit a monkeypatched ``execute_config`` only when
#: they are forked from the patched parent.
FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not FORK, reason="pool workers see the patch only under fork")


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
                "REPRO_CACHE_SALT"):
        monkeypatch.delenv(var, raising=False)


class OddError(Exception):
    """An exception whose constructor does not survive pickling: the
    pickled form calls ``OddError('x/y')``, one argument short."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


class FailingUnits:
    """What a patched ``execute_config`` did, read back from its log
    file (pool workers append to it too)."""

    def __init__(self, log):
        self.log = log

    def calls(self, seed):
        """How many times ``execute_config`` ran the unit ``seed``."""
        if not self.log.exists():
            return 0
        return self.log.read_text().split().count(str(seed))


@pytest.fixture
def failing_units(monkeypatch, tmp_path):
    """``failing_units(seeds, how)`` makes every unit whose seed is in
    ``seeds`` fail when it runs, in this process and in forked pool
    workers: ``raise`` (a RuntimeError), ``odd`` (an :class:`OddError`),
    ``crash`` (``os._exit``: the worker dies) or ``crash-once`` (dies on
    the first run of the unit only).  Every call is logged by seed."""
    real = worker.execute_config
    log = tmp_path / "calls.log"
    crashed = tmp_path / "crashed"

    def install(seeds, how="raise"):
        if how.startswith("crash") and not FORK:
            pytest.skip("a worker crash needs a forked pool worker")
        seeds = set(seeds)

        def execute_config(config, batch=1):
            with open(log, "a") as handle:
                handle.write(f"{config.seed}\n")
            if config.seed in seeds:
                if how == "crash" or (how == "crash-once"
                                      and not crashed.exists()):
                    crashed.touch()
                    os._exit(13)
                if how == "odd":
                    raise OddError("x", "y")
                if how == "raise":
                    raise RuntimeError(f"seed {config.seed} is broken")
            return real(config, batch=batch)

        monkeypatch.setattr(worker, "execute_config", execute_config)
        return FailingUnits(log)

    return install
