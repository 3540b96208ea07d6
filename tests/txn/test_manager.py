"""Transaction manager: execution, commits, deadline aborts, restarts."""

import pytest

from repro.cc import (PriorityCeiling, TwoPhaseLocking,
                      TwoPhaseLockingPriority)
from repro.db import Database
from repro.resources import CPU, ParallelIO
from repro.txn import CostModel
from repro.txn.manager import spawn_transaction
from tests.conftest import make_txn


class Rig:
    """A minimal single-site rig around spawn_transaction."""

    def __init__(self, kernel, cc, costs=None):
        self.kernel = kernel
        self.cc = cc
        self.cpu = CPU(kernel, policy=cc.cpu_policy)
        self.io = ParallelIO(kernel)
        self.database = Database(50)
        self.costs = costs or CostModel(cpu_per_object=1.0,
                                        io_per_object=2.0)
        self.done = []

    def submit(self, txn):
        spawn_transaction(self.kernel, txn, self.cc, self.cpu, self.io,
                          self.database, self.costs, self.done.append)
        return txn


def test_single_transaction_commits_with_expected_timing(kernel):
    rig = Rig(kernel, PriorityCeiling(kernel))
    txn = rig.submit(make_txn([(1, "w"), (2, "w")], priority=1,
                              deadline=100.0))
    kernel.run()
    assert txn.committed
    # 2 objects x (1 cpu + 2 io) = 6 time units, no contention.
    assert txn.finish_time == 6.0
    assert txn.blocked_time == 0.0
    assert rig.done == [txn]


def test_writes_update_database_objects(kernel):
    rig = Rig(kernel, PriorityCeiling(kernel))
    txn = rig.submit(make_txn([(3, "w"), (4, "r")], priority=1,
                              deadline=100.0))
    kernel.run()
    assert rig.database.object(3).value == float(txn.tid)
    # Written in place once its own bursts are done (1 cpu + 2 io).
    assert rig.database.object(3).version_ts == 3.0
    # A read installs nothing.
    assert rig.database.object(4).version_ts == 0.0


def test_deadline_miss_aborts_and_releases_locks(kernel):
    rig = Rig(kernel, PriorityCeiling(kernel))
    # Needs 2 objects x 3 = 6 units but the deadline is at 4.
    doomed = rig.submit(make_txn([(1, "w"), (2, "w")], priority=9,
                                 deadline=4.0))
    follower = rig.submit(make_txn([(1, "w")], priority=1,
                                   deadline=100.0))
    kernel.run()
    assert doomed.missed
    assert doomed.finish_time == 4.0
    assert follower.committed  # the lock on object 1 was freed
    assert len(rig.cc.locks) == 0


def test_blocked_time_recorded(kernel):
    rig = Rig(kernel, TwoPhaseLockingPriority(kernel))
    rig.submit(make_txn([(1, "w")], priority=5, deadline=100.0))
    second = rig.submit(make_txn([(1, "w")], priority=1, deadline=100.0))
    kernel.run()
    assert second.committed
    assert second.blocked_time == pytest.approx(3.0)  # first's service
    # The late grant still runs its own access: 1 cpu + 2 io.
    assert second.finish_time == pytest.approx(6.0)


def test_monitor_callback_receives_all_outcomes(kernel):
    rig = Rig(kernel, PriorityCeiling(kernel))
    good = rig.submit(make_txn([(1, "w")], priority=2, deadline=100.0))
    bad = rig.submit(make_txn([(2, "w"), (3, "w")], priority=1,
                              deadline=1.0))
    kernel.run()
    assert set(rig.done) == {good, bad}


def test_deadlock_victim_restarts_and_commits(kernel):
    cc = TwoPhaseLocking(kernel, victim_policy="requester")
    rig = Rig(kernel, cc)
    t1 = rig.submit(make_txn([(1, "w"), (2, "w")], priority=1,
                             deadline=1000.0))
    t2 = rig.submit(make_txn([(2, "w"), (1, "w")], priority=1,
                             deadline=1000.0))
    kernel.run()
    assert t1.committed and t2.committed
    assert t1.restarts + t2.restarts >= 1
    assert cc.stats.deadlocks >= 1


def test_unresolved_deadlock_broken_by_deadline(kernel):
    cc = TwoPhaseLocking(kernel, victim_policy="none")
    rig = Rig(kernel, cc)
    t1 = rig.submit(make_txn([(1, "w"), (2, "w")], priority=1,
                             deadline=30.0))
    t2 = rig.submit(make_txn([(2, "w"), (1, "w")], priority=1,
                             deadline=50.0))
    kernel.run()
    # t1's deadline fires first, freeing t2 to finish.
    assert t1.missed
    assert t2.committed
    assert cc.stats.deadlocks == 1


def test_restart_delay_spaces_attempts(kernel):
    cc = TwoPhaseLocking(kernel, victim_policy="requester")
    rig = Rig(kernel, cc, costs=CostModel(cpu_per_object=1.0,
                                          io_per_object=2.0,
                                          restart_delay=5.0))
    t1 = rig.submit(make_txn([(1, "w"), (2, "w")], priority=1,
                             deadline=1000.0))
    t2 = rig.submit(make_txn([(2, "w"), (1, "w")], priority=1,
                             deadline=1000.0))
    kernel.run()
    assert t1.committed and t2.committed
    victim = t1 if t1.restarts else t2
    assert victim.finish_time > 10.0  # paid the restart delay


def test_cpu_contention_prioritizes_urgent_transaction(kernel):
    rig = Rig(kernel, PriorityCeiling(kernel),
              costs=CostModel(cpu_per_object=4.0, io_per_object=0.0))
    low = rig.submit(make_txn([(1, "w")], priority=1, deadline=100.0))
    high = rig.submit(make_txn([(2, "w")], priority=9, deadline=100.0))
    kernel.run()
    # Disjoint objects and no prior locks at t=0: both admitted; the
    # high-priority transaction preempts the CPU and finishes first.
    assert high.finish_time < low.finish_time
