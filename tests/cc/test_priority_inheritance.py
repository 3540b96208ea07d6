"""Protocol PI: basic priority inheritance over 2PL."""

from repro.cc import PriorityInheritance
from repro.kernel import Kernel
from tests.conftest import LockClient, make_txn


def test_holder_inherits_blocked_waiter_priority(kernel):
    cc = PriorityInheritance(kernel)
    low = make_txn([(1, "w")], priority=1)
    high = make_txn([(1, "w")], priority=9)
    LockClient(kernel, cc, low, hold=5.0)
    LockClient(kernel, cc, high, start_delay=1.0)
    kernel.run(until=2.0)
    assert low.process.effective_priority == 9
    assert cc.stats.inheritance_events >= 1
    kernel.run()
    # After low releases, its inheritance is cleared.
    assert low.process.inherited_priority is None


def test_holder_inherits_maximum_of_waiters(kernel):
    cc = PriorityInheritance(kernel)
    low = make_txn([(1, "w")], priority=1)
    mid = make_txn([(1, "w")], priority=5)
    high = make_txn([(1, "w")], priority=9)
    LockClient(kernel, cc, low, hold=10.0)
    LockClient(kernel, cc, mid, start_delay=1.0)
    LockClient(kernel, cc, high, start_delay=2.0)
    kernel.run(until=3.0)
    assert low.process.effective_priority == 9
    kernel.run()


def test_inheritance_is_transitive_through_chains(kernel):
    cc = PriorityInheritance(kernel)
    t3 = make_txn([(2, "w")], priority=1)            # holds 2
    t2 = make_txn([(1, "w"), (2, "w")], priority=5)  # holds 1, wants 2
    t1 = make_txn([(1, "w")], priority=9)            # wants 1
    LockClient(kernel, cc, t3, hold=20.0)
    LockClient(kernel, cc, t2, hold_each=1.0, start_delay=1.0)
    LockClient(kernel, cc, t1, start_delay=3.0)
    kernel.run(until=4.0)
    # t1 blocks on t2; t2 blocks on t3 -> t3 inherits t1's priority.
    assert t2.process.effective_priority == 9
    assert t3.process.effective_priority == 9
    kernel.run()


def test_inheritance_cleared_when_waiter_leaves(kernel):
    from repro.txn.transaction import DeadlineMiss

    cc = PriorityInheritance(kernel)
    low = make_txn([(1, "w")], priority=1)
    high = make_txn([(1, "w")], priority=9)
    LockClient(kernel, cc, low, hold=20.0)
    c_high = LockClient(kernel, cc, high, start_delay=1.0)
    kernel.run(until=2.0)
    assert low.process.effective_priority == 9
    # The waiter misses its deadline and disappears.
    kernel.interrupt(high.process, DeadlineMiss(high.tid))
    kernel.run(until=3.0)
    assert c_high.aborted
    assert low.process.effective_priority == 1
    kernel.run()


def test_chained_blocking_still_possible(kernel):
    # The scenario of §3.1: T1 needs O1 then O2, blocked once by T2
    # (holding O1) and again by T3 (holding O2) - two blockings.
    cc = PriorityInheritance(kernel)
    t3 = make_txn([(2, "w")], priority=2)   # lower priority, holds O2
    t2 = make_txn([(1, "w")], priority=3)   # holds O1
    t1 = make_txn([(1, "w"), (2, "w")], priority=9)
    LockClient(kernel, cc, t3, hold=6.0, start_delay=0.0)
    LockClient(kernel, cc, t2, hold=4.0, start_delay=0.0)
    c1 = LockClient(kernel, cc, t1, start_delay=1.0)
    kernel.run()
    # T1 waited for T2's release (t=4) for O1, then for T3's (t=6) for O2.
    assert c1.grant_time(1) == 4.0
    assert c1.grant_time(2) == 6.0
    # Blocked twice: the chained-blocking weakness PI does not fix.
    assert cc.stats.blocks == 2


def test_pi_name_and_cpu_policy():
    cc = PriorityInheritance(Kernel())
    assert cc.name == "PI"
    assert cc.cpu_policy == "priority"
