"""Protocol L: strict 2PL with FCFS queues."""

import pytest

from repro.cc import TwoPhaseLocking
from repro.protocols import REGISTRY
from tests.conftest import LockClient, make_txn


def test_compatible_requests_granted_immediately(kernel):
    cc = TwoPhaseLocking(kernel)
    t1 = make_txn([(1, "r")], priority=1)
    t2 = make_txn([(1, "r")], priority=2)
    c1 = LockClient(kernel, cc, t1, hold=5.0)
    c2 = LockClient(kernel, cc, t2, hold=5.0)
    kernel.run()
    assert c1.grant_time(1) == 0.0
    assert c2.grant_time(1) == 0.0


def test_conflicting_request_waits_for_release(kernel):
    cc = TwoPhaseLocking(kernel)
    t1 = make_txn([(1, "w")], priority=1)
    t2 = make_txn([(1, "w")], priority=2)
    c1 = LockClient(kernel, cc, t1, hold=5.0)
    c2 = LockClient(kernel, cc, t2, hold=1.0)
    kernel.run()
    assert c1.grant_time(1) == 0.0
    assert c2.grant_time(1) == 5.0
    assert cc.stats.blocks == 1


def test_fcfs_queue_ignores_priority(kernel):
    cc = TwoPhaseLocking(kernel)
    holder = make_txn([(1, "w")], priority=0)
    low = make_txn([(1, "w")], priority=1)
    high = make_txn([(1, "w")], priority=9)
    LockClient(kernel, cc, holder, hold=10.0)
    c_low = LockClient(kernel, cc, low, hold=1.0, start_delay=1.0)
    c_high = LockClient(kernel, cc, high, hold=1.0, start_delay=2.0)
    kernel.run()
    # low queued first, so it is served first despite lower priority.
    assert c_low.grant_time(1) == 10.0
    assert c_high.grant_time(1) == 11.0


def test_new_reader_queues_behind_waiting_writer(kernel):
    # Fairness: a read request must not jump a queued write request,
    # or writers starve.
    cc = TwoPhaseLocking(kernel)
    reader1 = make_txn([(1, "r")], priority=1)
    writer = make_txn([(1, "w")], priority=1)
    reader2 = make_txn([(1, "r")], priority=1)
    c1 = LockClient(kernel, cc, reader1, hold=10.0)
    cw = LockClient(kernel, cc, writer, hold=2.0, start_delay=1.0)
    c2 = LockClient(kernel, cc, reader2, hold=1.0, start_delay=2.0)
    kernel.run()
    assert c1.grant_time(1) == 0.0
    assert cw.grant_time(1) == 10.0
    assert c2.grant_time(1) == 12.0  # after the writer, not before


def test_release_all_wakes_compatible_group(kernel):
    cc = TwoPhaseLocking(kernel)
    writer = make_txn([(1, "w")], priority=1)
    readers = [make_txn([(1, "r")], priority=1) for __ in range(3)]
    LockClient(kernel, cc, writer, hold=4.0)
    clients = [LockClient(kernel, cc, txn, hold=1.0, start_delay=1.0)
               for txn in readers]
    kernel.run()
    for client in clients:
        assert client.grant_time(1) == 4.0  # all readers admitted together


def test_two_phase_rule_locks_held_until_done(kernel):
    cc = TwoPhaseLocking(kernel)
    t1 = make_txn([(1, "w"), (2, "w")], priority=1)
    t2 = make_txn([(1, "w")], priority=1)
    LockClient(kernel, cc, t1, hold_each=2.0, hold=3.0)
    c2 = LockClient(kernel, cc, t2, start_delay=1.0)
    kernel.run()
    # t1 finishes at 2+2+3=7; t2 gets object 1 only then (strictness).
    assert c2.grant_time(1) == 7.0


def test_deadlock_detected_and_counted_policy_none(kernel):
    cc = TwoPhaseLocking(kernel)  # victim_policy="none"
    t1 = make_txn([(1, "w"), (2, "w")], priority=1)
    t2 = make_txn([(2, "w"), (1, "w")], priority=1)
    c1 = LockClient(kernel, cc, t1, hold_each=2.0)
    c2 = LockClient(kernel, cc, t2, hold_each=2.0)
    kernel.run(until=50.0)
    assert cc.stats.deadlocks == 1
    # Nobody resolves it: both sit blocked forever.
    assert not c1.finished and not c2.finished
    assert cc.waiting_count == 2


def test_deadlock_requester_victim_aborts_and_cycle_clears(kernel):
    cc = TwoPhaseLocking(kernel, victim_policy="requester")
    t1 = make_txn([(1, "w"), (2, "w")], priority=1)
    t2 = make_txn([(2, "w"), (1, "w")], priority=1)
    c1 = LockClient(kernel, cc, t1, hold_each=2.0)
    c2 = LockClient(kernel, cc, t2, hold_each=2.0)
    kernel.run()
    assert cc.stats.deadlocks == 1
    # The requester that closed the cycle aborted; the other finished.
    assert c1.finished != c2.finished
    assert c1.aborted or c2.aborted
    assert len(cc.locks) == 0


def test_deadlock_lowest_priority_victim(kernel):
    cc = TwoPhaseLocking(kernel, victim_policy="lowest_priority")
    low = make_txn([(1, "w"), (2, "w")], priority=1)
    high = make_txn([(2, "w"), (1, "w")], priority=9)
    c_low = LockClient(kernel, cc, low, hold_each=2.0)
    c_high = LockClient(kernel, cc, high, hold_each=2.0)
    kernel.run()
    assert c_low.aborted
    assert c_high.finished


def test_three_way_deadlock_detected(kernel):
    cc = TwoPhaseLocking(kernel, victim_policy="youngest")
    t1 = make_txn([(1, "w"), (2, "w")], priority=1)
    t2 = make_txn([(2, "w"), (3, "w")], priority=1)
    t3 = make_txn([(3, "w"), (1, "w")], priority=1)
    clients = [LockClient(kernel, cc, txn, hold_each=2.0)
               for txn in (t1, t2, t3)]
    kernel.run()
    assert cc.stats.deadlocks >= 1
    assert sum(1 for client in clients if client.finished) >= 2
    assert len(cc.locks) == 0


def test_invalid_victim_policy_rejected(kernel):
    with pytest.raises(ValueError):
        TwoPhaseLocking(kernel, victim_policy="coin-flip")


def test_factory_returns_expected_types(kernel):
    for name in ("L", "P", "PI", "C", "Cx"):
        assert REGISTRY.resolve(name).build(kernel).name == name
    with pytest.raises(ValueError):
        REGISTRY.resolve("X")


def test_stats_track_grant_kinds(kernel):
    cc = TwoPhaseLocking(kernel)
    t1 = make_txn([(1, "w")], priority=1)
    t2 = make_txn([(1, "w")], priority=1)
    LockClient(kernel, cc, t1, hold=3.0)
    LockClient(kernel, cc, t2)
    kernel.run()
    assert cc.stats.requests == 2
    assert cc.stats.immediate_grants == 1
    assert cc.stats.blocks == 1
    assert cc.stats.direct_blocks == 1
    assert cc.stats.ceiling_blocks == 0
