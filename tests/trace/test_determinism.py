"""The zero-perturbation contract (bit-identity property).

Running under an installed :class:`Tracer` must leave a run *bitwise
identical* to running untraced: same monitor records, same summary row,
same RNG streams in the same end states — in both distributed
architectures, under a lossy fault plan with a crash, and in the
single-site environment.  This is what lets ``repro run --trace``
re-run cached experiments without invalidating a single result.
"""

import contextlib

import pytest

from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.core.config import SingleSiteConfig
from repro.core.experiment import run_single_site
from repro.dist import DistributedSystem
from repro.faults import FaultPlan, SiteCrash
from repro.trace import Tracer, tracing
from repro.txn import CostModel
from tests.conftest import observers

MODES = ("local", "global")

FAULTY = FaultPlan(loss_rate=0.05, delay_jitter=1.0,
                   crashes=(SiteCrash(site=1, at=40.0, down_for=30.0),))


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    assert observers(Tracer) == []
    yield
    assert observers(Tracer) == []


def dist_config(mode, faults=None, seed=3):
    return DistributedConfig(
        mode=mode, comm_delay=1.0, db_size=60, seed=seed,
        workload=WorkloadConfig(n_transactions=40,
                                mean_interarrival=4.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.5),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0),
        faults=faults)


def run_dist(mode, faults, tracer=None, seed=3):
    with (tracing(tracer) if tracer is not None
          else contextlib.nullcontext()):
        system = DistributedSystem(dist_config(mode, faults, seed=seed))
        system.run()
    streams = {name: rng.getstate()
               for name, rng in system.kernel.rng._streams.items()}
    return system.summary(), list(system.monitor.records), streams


# ----------------------------------------------------------------------
# the property itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_traced_run_is_bitwise_identical(mode):
    base_summary, base_records, base_streams = run_dist(mode, None)
    tracer = Tracer()
    summary, records, streams = run_dist(mode, None, tracer=tracer)
    assert records == base_records
    assert summary == base_summary
    assert streams == base_streams
    assert tracer.emitted > 0  # the run really was traced


@pytest.mark.parametrize("mode", MODES)
def test_traced_faulted_run_is_bitwise_identical(mode):
    # The hard case: loss, jitter and a crash/recovery interval all
    # active — every retry, drop and crash hook fires, and none of
    # them may perturb the run.
    base_summary, base_records, base_streams = run_dist(mode, FAULTY)
    tracer = Tracer()
    summary, records, streams = run_dist(mode, FAULTY, tracer=tracer)
    assert records == base_records
    assert summary == base_summary
    assert streams == base_streams
    kinds = {event.kind for event in tracer.events}
    assert "site_crash" in kinds
    assert "site_recover" in kinds


@pytest.mark.parametrize("mode", MODES)
def test_tracing_twice_gives_identical_event_streams(mode):
    # Determinism of the trace itself: same seed, same events.
    first = Tracer()
    run_dist(mode, FAULTY, tracer=first)
    second = Tracer()
    run_dist(mode, FAULTY, tracer=second)
    assert list(first.events) == list(second.events)


@pytest.mark.parametrize("mode", MODES)
def test_replicate_is_identical_under_tracing(mode):
    # The experiment-layer aggregation (what the CLI prints) is
    # bitwise identical too, not just a single system run.
    from repro.core import replicate

    base = replicate(dist_config(mode, None), replications=3)
    with tracing(Tracer()):
        traced = replicate(dist_config(mode, None), replications=3)
    assert traced == base


def test_single_site_run_is_bitwise_identical():
    config = SingleSiteConfig(protocol="C", db_size=100, seed=11)
    base = run_single_site(config)
    tracer = Tracer()
    with tracing(tracer):
        traced = run_single_site(config)
    assert traced == base
    assert tracer.emitted > 0


def test_summary_never_grows_trace_keys_live():
    # The trace_* overlay is a presentation-time merge: the live
    # summary of a traced run must not contain any trace_* key.
    tracer = Tracer()
    summary, __, ___ = run_dist("local", None, tracer=tracer)
    assert not any(key.startswith("trace_") for key in summary)
