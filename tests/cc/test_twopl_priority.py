"""Protocol P: 2PL with priority-ordered lock queues."""

from repro.cc import TwoPhaseLockingPriority
from repro.kernel import Kernel
from tests.conftest import LockClient, make_txn


def test_priority_queue_serves_urgent_waiter_first(kernel):
    cc = TwoPhaseLockingPriority(kernel)
    holder = make_txn([(1, "w")], priority=0)
    low = make_txn([(1, "w")], priority=1)
    high = make_txn([(1, "w")], priority=9)
    LockClient(kernel, cc, holder, hold=10.0)
    c_low = LockClient(kernel, cc, low, hold=1.0, start_delay=1.0)
    c_high = LockClient(kernel, cc, high, hold=1.0, start_delay=2.0)
    kernel.run()
    # high queued later but jumps ahead of low.
    assert c_high.grant_time(1) == 10.0
    assert c_low.grant_time(1) == 11.0


def test_high_priority_reader_jumps_waiting_low_writer(kernel):
    cc = TwoPhaseLockingPriority(kernel)
    reader1 = make_txn([(1, "r")], priority=5)
    writer = make_txn([(1, "w")], priority=1)
    reader2 = make_txn([(1, "r")], priority=9)
    LockClient(kernel, cc, reader1, hold=10.0)
    cw = LockClient(kernel, cc, writer, hold=2.0, start_delay=1.0)
    c2 = LockClient(kernel, cc, reader2, hold=3.0, start_delay=2.0)
    kernel.run()
    # Unlike FCFS, the high-priority reader is admitted alongside
    # reader1 (read-read compatible, higher priority than the writer).
    assert c2.grant_time(1) == 2.0
    assert cw.grant_time(1) == 10.0


def test_low_priority_reader_cannot_jump_high_writer(kernel):
    cc = TwoPhaseLockingPriority(kernel)
    reader1 = make_txn([(1, "r")], priority=5)
    writer = make_txn([(1, "w")], priority=9)
    reader2 = make_txn([(1, "r")], priority=1)
    LockClient(kernel, cc, reader1, hold=10.0)
    cw = LockClient(kernel, cc, writer, hold=2.0, start_delay=1.0)
    c2 = LockClient(kernel, cc, reader2, hold=1.0, start_delay=2.0)
    kernel.run()
    assert cw.grant_time(1) == 10.0
    assert c2.grant_time(1) == 12.0  # behind the higher-priority writer


def test_no_priority_inheritance_in_plain_p(kernel):
    cc = TwoPhaseLockingPriority(kernel)
    low = make_txn([(1, "w")], priority=1)
    high = make_txn([(1, "w")], priority=9)
    LockClient(kernel, cc, low, hold=5.0)
    LockClient(kernel, cc, high, start_delay=1.0)
    kernel.run(until=2.0)
    # high is blocked on low, but low's effective priority is unchanged:
    # protocol P suffers priority inversion.
    assert low.process.effective_priority == 1
    assert cc.stats.inheritance_events == 0
    kernel.run()


def test_deadlocks_still_possible_and_counted(kernel):
    cc = TwoPhaseLockingPriority(kernel)
    t1 = make_txn([(1, "w"), (2, "w")], priority=3)
    t2 = make_txn([(2, "w"), (1, "w")], priority=7)
    LockClient(kernel, cc, t1, hold_each=2.0)
    LockClient(kernel, cc, t2, hold_each=2.0)
    kernel.run(until=50.0)
    assert cc.stats.deadlocks == 1


def test_cpu_policy_is_preemptive_priority():
    assert TwoPhaseLockingPriority(Kernel()).cpu_policy == "priority"
