"""Property tests: priority ceiling protocol invariants under random
scripted workloads driven through the real kernel.

Scope note.  Classical PCP assumes a *static* task set, so per-object
ceilings never rise while locks are held; its deadlock-freedom theorem
depends on that.  This library computes ceilings over the currently
active transactions (the paper's open arrival stream), where a
late-registering transaction of *higher* priority than the current
declarers can raise a locked object's ceiling and — in rare
interleavings — close a blocking cycle (see
``test_rising_ceiling_cycle_regression``).  Under the paper's own
priority model (earliest-deadline-first over an arrival stream) new
transactions almost always carry *lower* priorities, ceilings fall
rather than rise, and the classical guarantee applies; when a cycle does
form, the hard-deadline abort resolves it.  The properties below encode
exactly that split:

- deadlock freedom holds unconditionally when later transactions never
  out-rank earlier ones (the EDF regime);
- with arbitrary priorities, the system always drains once deadlines
  are attached (liveness via deadline aborts).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import PriorityCeiling
from repro.cc.base import BARRIER, CONFLICT, QUEUE
from repro.cc.deadlock import find_cycle_through
from repro.kernel import Kernel
from repro.txn.transaction import DeadlineMiss
from tests.conftest import LockClient, make_txn

def arm_deadline(kernel, txn, time):
    """Interrupt ``txn``'s client with :class:`DeadlineMiss` at
    ``time``, as a transaction manager's deadline does."""
    process = txn.process
    kernel.at(time, lambda: kernel.interrupt(process,
                                             DeadlineMiss(txn.tid)))


scenario = st.lists(
    st.fixed_dictionaries({
        "priority": st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False),
        "objects": st.lists(
            st.tuples(st.integers(min_value=0, max_value=5),
                      st.sampled_from("rw")),
            min_size=1, max_size=3),
        "start": st.floats(min_value=0.0, max_value=10.0,
                           allow_nan=False),
        "hold": st.floats(min_value=0.0, max_value=3.0,
                          allow_nan=False),
    }),
    min_size=1, max_size=8)


def dedupe(objects):
    seen = set()
    result = []
    for oid, mode in objects:
        if oid not in seen:
            seen.add(oid)
            result.append((oid, mode))
    return result


def edf_like(scripts):
    """Reassign priorities so later starters never out-rank earlier
    ones — the paper's EDF regime with a fixed transaction size."""
    ordered = sorted(scripts, key=lambda script: script["start"])
    for rank, script in enumerate(ordered):
        script = dict(script)
        script["priority"] = float(len(ordered) - rank)
        yield script


@settings(max_examples=60, deadline=None)
@given(scenario)
def test_pcp_deadlock_free_under_edf_regime(scripts):
    """With non-rising arrival priorities, every transaction finishes
    and no state leaks — for ANY access sets, modes and timings."""
    kernel = Kernel(seed=1)
    cc = PriorityCeiling(kernel)
    clients = []
    for index, script in enumerate(edf_like(scripts)):
        txn = make_txn(dedupe(script["objects"]),
                       priority=script["priority"])
        clients.append(LockClient(kernel, cc, txn,
                                  hold_each=script["hold"],
                                  start_delay=script["start"]))
    kernel.run()
    assert all(client.finished for client in clients)
    assert len(cc.locks) == 0
    assert cc.waiting_count == 0
    assert not cc.active


@settings(max_examples=60, deadline=None)
@given(scenario)
def test_pcp_exclusive_mode_deadlock_free_under_edf_regime(scripts):
    kernel = Kernel(seed=1)
    cc = PriorityCeiling(kernel, exclusive_only=True)
    clients = []
    for script in edf_like(scripts):
        txn = make_txn(dedupe(script["objects"]),
                       priority=script["priority"])
        clients.append(LockClient(kernel, cc, txn,
                                  hold_each=script["hold"],
                                  start_delay=script["start"]))
    kernel.run()
    assert all(client.finished for client in clients)
    assert len(cc.locks) == 0


@settings(max_examples=60, deadline=None)
@given(scenario)
def test_pcp_arbitrary_priorities_drain_with_deadlines(scripts):
    """Liveness with arbitrary (possibly rising) priorities: attach the
    hard deadline every real transaction has, and the system always
    drains — any rare blocking cycle is broken by a deadline abort."""
    kernel = Kernel(seed=3)
    cc = PriorityCeiling(kernel)
    clients = []
    for index, script in enumerate(scripts):
        txn = make_txn(dedupe(script["objects"]),
                       priority=script["priority"] + index * 1e-6)
        client = LockClient(kernel, cc, txn,
                            hold_each=script["hold"],
                            start_delay=script["start"])
        arm_deadline(kernel, txn, script["start"] + 50.0)
        clients.append(client)
    kernel.run()
    assert all(client.finished or client.aborted for client in clients)
    assert len(cc.locks) == 0
    assert cc.waiting_count == 0


@settings(max_examples=40, deadline=None)
@given(scenario)
def test_pcp_subsumption_no_conflicting_grants(scripts):
    """The ceiling admission test must subsume lock conflicts: the
    LockError assertion inside the protocol would crash this run on any
    incompatible grant."""
    kernel = Kernel(seed=2)
    cc = PriorityCeiling(kernel)
    for index, script in enumerate(scripts):
        txn = make_txn(dedupe(script["objects"]),
                       priority=script["priority"] + index * 1e-6)
        LockClient(kernel, cc, txn, hold_each=script["hold"],
                   start_delay=script["start"])
        arm_deadline(kernel, txn, script["start"] + 50.0)
    kernel.run()  # would raise LockError on any subsumption violation


def test_rising_ceiling_cycle_regression():
    """The hypothesis-found counterexample, pinned down.

    T2 (prio ~0) write-locks O2; T3 (prio ~0+) write-locks O0.  Then T1
    (prio 1) registers, raising O2's absolute ceiling above T3's
    priority.  T3's next request is ceiling-blocked behind T2, T2's
    next request directly conflicts with T3's lock, and T1 waits on the
    ceiling: a cycle no release will ever break.  With deadlines
    attached the cycle resolves by abort; this test documents both the
    stuck state and its resolution.
    """
    kernel = Kernel(seed=1)
    cc = PriorityCeiling(kernel)
    t2 = make_txn([(2, "w"), (0, "r")], priority=0.000002)
    t3 = make_txn([(0, "w"), (1, "r")], priority=0.000003)
    t1 = make_txn([(2, "r")], priority=1.0)
    # Spawn order matters: t1 must register (raising O2's ceiling)
    # before t3's second request at the same instant.
    c1 = LockClient(kernel, cc, t1, start_delay=1.0)
    c2 = LockClient(kernel, cc, t2, hold_each=1.0)
    c3 = LockClient(kernel, cc, t3, hold_each=1.0)
    arm_deadline(kernel, t2, 100.0)
    kernel.run(until=50.0)
    # Stuck: all three are waiting and no event is pending before 100.
    assert cc.waiting_count == 3
    # The cycle closes through the barrier edge t3 -> t2: every kind
    # finds it; the conflict and queue kinds (VFY-DEADLOCK's, and the
    # sanitizer's) do not.
    every_kind = CONFLICT | QUEUE | BARRIER
    cycle = find_cycle_through(
        t2.tid, lambda tid: cc.blocked_by(tid, every_kind))
    assert cycle is not None and set(cycle) == {t2.tid, t3.tid}
    assert find_cycle_through(
        t2.tid, lambda tid: cc.blocked_by(tid, CONFLICT | QUEUE)) is None
    kernel.run()
    # t2's deadline abort at t=100 releases O2 and unjams everyone.
    assert c2.aborted
    assert c3.finished and c1.finished
    assert len(cc.locks) == 0
