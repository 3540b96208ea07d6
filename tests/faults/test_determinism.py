"""The determinism contract (bit-identity property).

Attaching a zero-probability :class:`FaultPlan` must leave a run
*bitwise identical* to running with no plan at all: same monitor
records, same summary row, same RNG streams in the same end states.
This is what lets every historical experiment carry a ``faults`` config
field without invalidating a single cached result.
"""

import pytest

from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.dist import DistributedSystem
from repro.faults import FaultPlan, SiteCrash
from repro.txn import CostModel

MODES = ("local", "global")


def fault_config(mode, faults=None, seed=3):
    return DistributedConfig(
        mode=mode, comm_delay=1.0, db_size=60, seed=seed,
        workload=WorkloadConfig(n_transactions=40,
                                mean_interarrival=4.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.5),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0),
        faults=faults)


def run_system(mode, faults, seed=3):
    system = DistributedSystem(fault_config(mode, faults, seed=seed))
    system.run()
    streams = {name: rng.getstate()
               for name, rng in system.kernel.rng._streams.items()}
    return system, system.summary(), list(system.monitor.records), streams


# ----------------------------------------------------------------------
# the property itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_zero_probability_plan_is_bitwise_identical(mode):
    __, base_summary, base_records, base_streams = run_system(mode, None)
    system, summary, records, streams = run_system(mode, FaultPlan())
    assert records == base_records
    assert summary == base_summary
    # The faults stream was never created, and every other stream made
    # exactly the same draws (identical end states).
    assert set(streams) == set(base_streams)
    assert streams == base_streams
    # The plan was classified as inert: no injector, no recovery layer.
    assert system.injector is None
    assert system.policy is None
    assert not system.degradation.enabled


@pytest.mark.parametrize("mode", MODES)
def test_replicate_is_identical_with_a_zero_fault_plan(mode):
    # The acceptance wording: replicate() output (the experiment-layer
    # aggregation) is bitwise identical too, not just a single run.
    from repro.core import replicate

    base = replicate(fault_config(mode, None), replications=3)
    planned = replicate(fault_config(mode, FaultPlan()), replications=3)
    assert planned == base


@pytest.mark.parametrize("mode", MODES)
def test_timeout_knobs_alone_stay_bitwise_identical(mode):
    # Tuning the recovery parameters without any perturbation must not
    # change the run either (the plan is still inert).
    plan = FaultPlan(rpc_timeout=3.0, rpc_timeout_cap=30.0,
                     courier_attempts=5)
    __, base_summary, base_records, __unused = run_system(mode, None)
    ___, summary, records, ____ = run_system(mode, plan)
    assert records == base_records
    assert summary == base_summary


# ----------------------------------------------------------------------
# faulted runs are deterministic too
# ----------------------------------------------------------------------
FAULTY = FaultPlan(loss_rate=0.05, delay_jitter=1.0,
                   crashes=(SiteCrash(site=1, at=40.0, down_for=30.0),))


@pytest.mark.parametrize("mode", MODES)
def test_same_seed_same_plan_reproduces_the_faulted_run(mode):
    __, first_summary, first_records, first_streams = run_system(
        mode, FAULTY)
    ___, second_summary, second_records, second_streams = run_system(
        mode, FAULTY)
    assert first_records == second_records
    assert first_summary == second_summary
    assert first_streams == second_streams
    assert "faults" in first_streams


@pytest.mark.parametrize("mode", MODES)
def test_different_seeds_diverge_under_the_same_plan(mode):
    __, first, ___, ____ = run_system(mode, FAULTY, seed=3)
    _____, second, ______, _______ = run_system(mode, FAULTY, seed=4)
    assert first != second


# ----------------------------------------------------------------------
# summary surface (fault-free rows keep their historical key set)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_network_health_is_always_surfaced(mode):
    system, summary, __, ___ = run_system(mode, None)
    for key in ("messages_lost", "undeliverable", "ms_dropped"):
        assert key in summary
    assert not any(key.startswith("fault_") for key in summary)


@pytest.mark.parametrize("mode", MODES)
def test_faulted_rows_carry_the_degradation_ledger(mode):
    system, summary, __, ___ = run_system(mode, FAULTY)
    assert summary["fault_crashes"] == 1
    assert summary["fault_recoveries"] == 1
    assert "fault_downtime" in summary
    assert "fault_availability" in summary
    assert summary["messages_lost"] >= summary["fault_messages_dropped"]
