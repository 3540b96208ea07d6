"""``VFY-DEADLOCK`` reads the protocols' own blocked-by relation."""

from types import SimpleNamespace

from repro.cc import PriorityCeiling, TwoPhaseLocking
from repro.cc.base import BARRIER
from repro.cc.deadlock import find_cycle_through
from repro.kernel import Kernel
from repro.verify.checkers import check_deadlock
from tests.conftest import LockClient, make_txn


def _instance(cc, kernel):
    return SimpleNamespace(ccs=[cc], kernel=kernel, expect_deadlocks=False)


def test_no_false_deadlock_under_the_ceiling_barrier():
    # R reads o1; Z write-locks o2; W write-locks o3 and then asks to
    # read o1, compatible with R's read lock.  H's registration raises
    # o2's ceiling above W, so W waits on Z's barrier, not on R.  An
    # edge to every holder of the requested object would add W -> R to
    # R -> W (R's o3 write conflicts with W's lock): a cycle, in a run
    # that drains.
    kernel = Kernel(seed=1)
    cc = PriorityCeiling(kernel)
    r = make_txn([(1, "r"), (3, "w")], priority=1)
    z = make_txn([(2, "w")], priority=2)
    w = make_txn([(3, "w"), (1, "r")], priority=5)
    h = make_txn([(2, "w")], priority=10)
    LockClient(kernel, cc, r, hold_each=3.0)
    LockClient(kernel, cc, z, start_delay=1.0, hold=100.0)
    LockClient(kernel, cc, w, start_delay=1.5, hold_each=2.5)
    LockClient(kernel, cc, h, start_delay=2.0)
    kernel.run(until=5.0)
    assert w in cc.waiting_txns()
    assert check_deadlock(_instance(cc, kernel)) == []
    assert cc.blocked_by(w.tid, BARRIER) == [z.tid]
    kernel.run()
    assert cc.waiting_count == 0 and len(cc.locks) == 0


def test_deadlock_cycle_matches_the_detector():
    # R reads o1 and asks for o2, which W holds; W asks to read o1
    # behind X's queued write.  The only cycle runs R -> W -> X -> R
    # through that fairness wait; W -> R is a read-read pair.
    kernel = Kernel(seed=1)
    cc = TwoPhaseLocking(kernel)
    r = make_txn([(1, "r"), (2, "w")], priority=1)
    w = make_txn([(2, "w"), (1, "r")], priority=1)
    x = make_txn([(1, "w")], priority=1)
    LockClient(kernel, cc, r, hold_each=3.0)
    LockClient(kernel, cc, w, start_delay=0.5, hold_each=1.5)
    LockClient(kernel, cc, x, start_delay=1.0)
    kernel.run(until=5.0)
    tids = sorted([r.tid, w.tid, x.tid])
    [violation] = check_deadlock(_instance(cc, kernel))
    assert violation.code == "VFY-DEADLOCK"
    assert violation.message == f"wait-for cycle among transactions {tids}"
    detected = find_cycle_through(r.tid, cc.blocked_by)
    assert sorted(detected) == tids
