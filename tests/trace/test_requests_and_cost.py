"""What the trace keeps, and what keeping it costs.

The tracer records no separate lock-request event: every request ends
in exactly one immediate ``lock_grant`` or one ``lock_block``, so the
protocols' ``cc_requests`` is recoverable from the trace alone.  And
tracing stays cheap enough to leave on: a traced run makes at most a
quarter more profiled calls than a plain one.
"""

import cProfile

import pytest

from repro.bench.micro import _single_site_config
from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               WorkloadConfig)
from repro.core.experiment import run_distributed, run_single_site
from repro.trace import Tracer, tracing

SINGLE_SITE = ["C", "Cx", "P", "L", "PI", "mpcp", "fmlp"]


def _traced_run(config):
    run = (run_single_site if isinstance(config, SingleSiteConfig)
           else run_distributed)
    with tracing(Tracer()) as tracer:
        row = run(config)
    return row, tracer.events


@pytest.mark.parametrize("config", [
    *(SingleSiteConfig(protocol=protocol, seed=3, workload=WorkloadConfig(
        n_transactions=80, transaction_size=14))
      for protocol in SINGLE_SITE),
    *(DistributedConfig(mode=mode, seed=2, workload=WorkloadConfig(
        n_transactions=80, read_only_fraction=0.5))
      for mode in ("local", "global")),
], ids=[*SINGLE_SITE, "local", "global"])
def test_immediate_grants_and_blocks_decompose_the_requests(config,
                                                            unobserved):
    row, events = _traced_run(config)
    immediate = sum(1 for event in events if event.kind == "lock_grant"
                    and not event.data["waited"])
    blocks = sum(1 for event in events if event.kind == "lock_block")
    assert blocks > 0
    assert immediate + blocks == row["cc_requests"]


def _calls(run, config) -> int:
    profiler = cProfile.Profile()
    profiler.runcall(run, config)
    return sum(calls for __, calls, *___ in profiler.getstats())


def test_tracing_costs_at_most_a_quarter_more_calls(unobserved,
                                                    monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    config = _single_site_config("C", 400)
    plain = _calls(run_single_site, config)

    def traced(config):
        with tracing(Tracer()):
            return run_single_site(config)

    assert _calls(traced, config) <= 1.25 * plain
