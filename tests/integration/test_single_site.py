"""End-to-end single-site invariants across all protocols."""

import dataclasses

import pytest

from repro.core import (SingleSiteConfig, SingleSiteSystem, TimingConfig,
                        WorkloadConfig)
from repro.txn import CostModel

PROTOCOLS = ("L", "P", "PI", "C", "Cx")


def config(protocol, seed=11, size=6, interarrival=18.0, n=80):
    return SingleSiteConfig(
        protocol=protocol, db_size=100,
        workload=WorkloadConfig(n_transactions=n,
                                mean_interarrival=interarrival,
                                transaction_size=size, size_jitter=2),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=2.0),
        seed=seed)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_transaction_reaches_a_terminal_state(protocol):
    system = SingleSiteSystem(config(protocol))
    monitor = system.run()
    assert monitor.processed == 80
    assert monitor.committed + monitor.missed == 80


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_no_locks_or_waiters_leak(protocol):
    system = SingleSiteSystem(config(protocol))
    system.run()
    assert len(system.cc.locks) == 0
    assert system.cc.waiting_count == 0


@pytest.mark.parametrize("protocol", ("C", "Cx"))
def test_ceiling_protocols_never_deadlock(protocol):
    # Heavier contention than the default: the ceiling protocols must
    # stay deadlock-free by construction.
    heavy = dataclasses.replace(config(protocol), db_size=30)
    system = SingleSiteSystem(heavy)
    system.run()
    assert system.cc.stats.deadlocks == 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_active_set_empties(protocol):
    system = SingleSiteSystem(config(protocol))
    system.run()
    if hasattr(system.cc, "active"):
        assert not system.cc.active


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_missed_transactions_finish_at_their_deadline(protocol):
    system = SingleSiteSystem(config(protocol, interarrival=6.0))
    monitor = system.run()
    for record in monitor.records:
        if record.missed:
            assert record.finish_time == pytest.approx(record.deadline)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_committed_transactions_meet_their_deadline(protocol):
    system = SingleSiteSystem(config(protocol, interarrival=6.0))
    monitor = system.run()
    for record in monitor.records:
        if record.committed:
            assert record.finish_time <= record.deadline + 1e-9


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_deterministic_replay(protocol):
    first = SingleSiteSystem(config(protocol)).run().summary()
    second = SingleSiteSystem(config(protocol)).run().summary()
    assert first == second


def test_protocols_see_identical_workload():
    # Common random numbers: the generated schedules are equal across
    # protocols for equal seeds.
    schedules = [SingleSiteSystem(config(protocol)).schedule
                 for protocol in PROTOCOLS]
    assert all(schedule == schedules[0] for schedule in schedules)


def test_committed_updates_are_installed():
    system = SingleSiteSystem(config("C"))
    monitor = system.run()
    committed = [record for record in monitor.records if record.committed]
    assert committed
    for record in committed:
        # A system numbers its transactions in arrival order from 1.
        spec = system.schedule[record.tid - 1]
        assert spec.size == record.size
        # All-write workload: every object the transaction accessed
        # holds a write no older than the transaction's start.
        for oid, __ in spec.operations:
            assert (system.database.object(oid).version_ts
                    >= record.start_time)


def test_blocked_time_never_negative_and_bounded():
    system = SingleSiteSystem(config("P", interarrival=8.0))
    monitor = system.run()
    for record in monitor.records:
        assert record.blocked_time >= 0.0
        if record.finish_time is not None and record.start_time is not None:
            assert record.blocked_time <= (record.finish_time
                                           - record.start_time) + 1e-9
