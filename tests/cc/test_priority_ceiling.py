"""Protocol C: the priority ceiling protocol."""

import pytest

from repro.cc import PriorityCeiling
from repro.db.locks import LockError, LockMode
from repro.kernel import Delay
from repro.kernel.syscalls import BLOCKED, DONE
from repro.txn.transaction import TransactionAbort
from tests.cc.pcp_oracle import barrier_entries, shadowed
from tests.conftest import LockClient, make_txn


# ----------------------------------------------------------------------
# static ceilings
# ----------------------------------------------------------------------
def test_ceilings_follow_registered_access_sets(kernel):
    cc = PriorityCeiling(kernel)
    writer = make_txn([(1, "w")], priority=5)
    reader = make_txn([(1, "r")], priority=8)
    cc.register(writer)
    cc.register(reader)
    assert cc.write_ceiling(1) == 5      # highest priority writer
    assert cc.absolute_ceiling(1) == 8   # highest priority accessor
    cc.deregister(reader)
    assert cc.absolute_ceiling(1) == 5
    cc.deregister(writer)
    assert cc.write_ceiling(1) is None
    assert cc.absolute_ceiling(1) is None


def test_rw_ceiling_depends_on_lock_mode(kernel):
    cc = PriorityCeiling(kernel)
    writer = make_txn([(1, "w")], priority=5)
    reader = make_txn([(1, "r")], priority=8)
    cc.register(writer)
    cc.register(reader)
    cc.locks.grant(1, reader.tid, LockMode.READ)
    # Read-locked: rw ceiling = write ceiling.
    assert cc.rw_ceiling(1) == 5
    cc.locks.release_all(reader.tid)
    cc.locks.grant(1, writer.tid, LockMode.WRITE)
    # Write-locked: rw ceiling = absolute ceiling.
    assert cc.rw_ceiling(1) == 8


def test_acquire_requires_registration(kernel):
    # Both entry points run the one request body: a transaction
    # manager's syscall and a lock manager's callback request.
    cc = PriorityCeiling(kernel)
    rogue = make_txn([(1, "w")], priority=5)
    LockClient(kernel, cc, rogue, register=False)
    with pytest.raises(LockError, match="registered"):
        kernel.run()
    with pytest.raises(LockError, match="registered"):
        cc.attempt(kernel, rogue.process, rogue, 1, LockMode.WRITE,
                   on_grant=lambda: None)
    assert not cc.locks.is_locked(1)
    assert cc.waiting_count == 0


# ----------------------------------------------------------------------
# ceiling blocking
# ----------------------------------------------------------------------
def test_direct_conflict_blocked(kernel):
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w")], priority=5)
    t2 = make_txn([(1, "w")], priority=9)
    LockClient(kernel, cc, t1, hold=5.0)
    c2 = LockClient(kernel, cc, t2, start_delay=1.0)
    kernel.run()
    assert c2.grant_time(1) == 5.0


def test_ceiling_blocks_unlocked_object_access(kernel):
    # The protocol "may forbid a transaction from locking an unlocked
    # data object" - the insurance premium.
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w")], priority=5)     # locks object 1
    t2 = make_txn([(2, "w")], priority=3)     # wants *unlocked* object 2
    LockClient(kernel, cc, t1, hold=6.0)
    c2 = LockClient(kernel, cc, t2, start_delay=1.0)
    kernel.run()
    # t2's priority (3) <= rw-ceiling of object 1 (5): blocked until
    # t1 releases, despite object 2 being free.
    assert c2.grant_time(2) == 6.0
    assert cc.stats.ceiling_blocks == 1
    assert cc.stats.direct_blocks == 0


def test_higher_priority_passes_ceiling_on_disjoint_objects(kernel):
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w")], priority=5)
    t2 = make_txn([(2, "w")], priority=8)     # higher than ceiling(1)=5
    LockClient(kernel, cc, t1, hold=6.0)
    c2 = LockClient(kernel, cc, t2, start_delay=1.0)
    kernel.run()
    assert c2.grant_time(2) == 1.0  # not blocked


def test_sha88_example_blocked_at_most_once(kernel):
    """The paper's §3.2 example: T2 blocked once by T3, regardless of
    how many objects T2 accesses."""
    cc = PriorityCeiling(kernel)
    t3 = make_txn([(3, "w")], priority=1)            # low, holds O3
    t2 = make_txn([(1, "w"), (2, "w")], priority=5)  # mid, two objects
    t1 = make_txn([(3, "w")], priority=9)            # high, shares O3
    LockClient(kernel, cc, t3, hold=6.0)
    c2 = LockClient(kernel, cc, t2, hold_each=1.0, start_delay=1.0)
    cc.register(t1)  # active but not yet locking: raises ceiling of O3
    kernel.run()
    # T2 was ceiling-blocked on its *first* object (ceiling of O3 is
    # T1's priority 9 > 5), and once unblocked at t=6 acquired both
    # objects without further blocking: blocked at most once.
    assert c2.grant_time(1) == 6.0
    assert c2.grant_time(2) == 7.0
    assert cc.stats.blocks == 1


def test_ceiling_block_triggers_priority_inheritance(kernel):
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w")], priority=5)
    t2 = make_txn([(2, "w")], priority=3)
    t3 = make_txn([(3, "w")], priority=4)
    LockClient(kernel, cc, t1, hold=10.0)
    LockClient(kernel, cc, t2, start_delay=1.0)
    LockClient(kernel, cc, t3, start_delay=2.0)
    kernel.run(until=3.0)
    # t2 and t3 are both ceiling-blocked by t1's lock; t1 inherits the
    # maximum of their priorities.
    assert t1.process.effective_priority == 5  # own 5 > inherited 4
    kernel.run()


def test_inheritance_raises_low_priority_holder(kernel):
    cc = PriorityCeiling(kernel)
    low = make_txn([(1, "w")], priority=2)
    high = make_txn([(1, "w")], priority=9)
    LockClient(kernel, cc, low, hold=10.0)
    LockClient(kernel, cc, high, start_delay=1.0)
    kernel.run(until=2.0)
    assert low.process.effective_priority == 9
    kernel.run()
    assert low.process.inherited_priority is None


def test_inheritance_is_transitive_through_a_waiting_holder(kernel):
    # mid holds 2 and waits (solo) for 3 behind low's lock on 1, whose
    # ceiling a later registration raised above mid.  When high blocks
    # on mid's lock, mid inherits 9 in the first pass; only a second
    # pass, which reads mid's new priority, passes it on to low.
    with shadowed():
        cc = PriorityCeiling(kernel)
        low = make_txn([(1, "w")], priority=1)
        mid = make_txn([(2, "w"), (3, "w")], priority=5)
        high = make_txn([(2, "w")], priority=9)
        LockClient(kernel, cc, low, hold=20.0)
        LockClient(kernel, cc, mid, hold_each=1.0, start_delay=1.0)
        LockClient(kernel, cc, high, start_delay=3.0)
        kernel.run(until=1.5)
        raiser = make_txn([(1, "w")], priority=6)
        cc.register(raiser)                  # ceiling of 1 rises to 6
        kernel.run(until=2.5)
        assert [r.txn for r in cc._solo] == [mid]
        assert low.process.effective_priority == 5
        kernel.run(until=4.0)
        assert list(cc._shared) == [high.tid]
        assert mid.process.effective_priority == 9
        assert low.process.effective_priority == 9
        cc.deregister(raiser)
        kernel.run()
        assert low.process.inherited_priority is None
        assert mid.process.inherited_priority is None


# ----------------------------------------------------------------------
# deadlock freedom
# ----------------------------------------------------------------------
def test_opposite_order_access_cannot_deadlock(kernel):
    # The classic 2PL deadlock scenario is deadlock-free under PCP.
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "w"), (2, "w")], priority=5)
    t2 = make_txn([(2, "w"), (1, "w")], priority=6)
    c1 = LockClient(kernel, cc, t1, hold_each=2.0)
    c2 = LockClient(kernel, cc, t2, hold_each=2.0)
    kernel.run()
    assert c1.finished and c2.finished
    assert len(cc.locks) == 0


def test_upgrade_deadlock_prevented_by_write_ceilings(kernel):
    # Two read-then-upgrade transactions deadlock under 2PL; under PCP
    # the second reader is blocked at its *read* because the declared
    # write intention raises the object's write ceiling.
    cc = PriorityCeiling(kernel)
    t1 = make_txn([(1, "r"), (1, "w")], priority=5)
    t2 = make_txn([(1, "r"), (1, "w")], priority=6)
    c1 = LockClient(kernel, cc, t1, hold_each=2.0)
    c2 = LockClient(kernel, cc, t2, hold_each=2.0)
    kernel.run()
    assert c1.finished and c2.finished


# ----------------------------------------------------------------------
# read/write semantics and the exclusive ablation
# ----------------------------------------------------------------------
def test_concurrent_readers_allowed_when_no_writer_active(kernel):
    cc = PriorityCeiling(kernel)
    r1 = make_txn([(1, "r")], priority=5)
    r2 = make_txn([(1, "r")], priority=6)
    LockClient(kernel, cc, r1, hold=5.0)
    c2 = LockClient(kernel, cc, r2, hold=5.0, start_delay=1.0)
    kernel.run()
    # Object 1 read-locked: rw ceiling = write ceiling = None (no active
    # writer declares it), so the second reader passes.
    assert c2.grant_time(1) == 1.0


def test_exclusive_mode_serializes_readers(kernel):
    cc = PriorityCeiling(kernel, exclusive_only=True)
    r1 = make_txn([(1, "r")], priority=5)
    r2 = make_txn([(1, "r")], priority=6)
    LockClient(kernel, cc, r1, hold=5.0)
    c2 = LockClient(kernel, cc, r2, hold=5.0, start_delay=1.0)
    kernel.run()
    # Exclusive semantics: the second reader waits for the first.
    assert c2.grant_time(1) == 5.0
    assert cc.name == "Cx"


def test_subsumption_assertion_never_fires_in_random_scenarios(kernel):
    # Drive a batch of registered transactions with random overlapping
    # access sets; the ceiling test must always subsume lock conflicts
    # (a LockError here would mean the protocol is broken).
    import random

    rng = random.Random(5)
    cc = PriorityCeiling(kernel)
    clients = []
    for index in range(12):
        size = rng.randint(1, 3)
        ops = [(rng.randint(1, 6), rng.choice("rw")) for __ in range(size)]
        seen = set()
        ops = [op for op in ops
               if op[0] not in seen and not seen.add(op[0])]
        txn = make_txn(ops, priority=float(index) + rng.random())
        clients.append(LockClient(kernel, cc, txn, hold_each=1.5,
                                  start_delay=rng.random() * 5))
    kernel.run()
    assert all(client.finished for client in clients)
    assert len(cc.locks) == 0
    assert cc.waiting_count == 0


# ----------------------------------------------------------------------
# barrier index and wake-up index maintenance
#
# Every scenario runs under the full-scan oracle (tests/cc/pcp_oracle):
# each woken waiter and each ``contributions`` dict — keys, values and
# insertion order — is compared against the historical O(W) scan.
# ----------------------------------------------------------------------
def _queue(cc, txn, oid, mode=LockMode.WRITE, granted=None):
    """Queue a callback request that must block; returns its grant log
    (``granted``, when several requests should share one)."""
    if granted is None:
        granted = []
    assert cc.attempt(cc.kernel, txn.process, txn, oid, mode,
                      on_grant=lambda: granted.append(oid)) is BLOCKED
    return granted


def _index_is_consistent(cc):
    """The partition covers the wait list exactly; the barrier index
    equals the from-scratch rebuild."""
    assert cc._entries == barrier_entries(cc)
    shared = list(cc._shared.values())
    assert sorted(shared + cc._solo, key=lambda r: r.seq) == cc.waiting
    assert cc._solo == sorted(cc._solo, key=lambda r: r.seq)
    for request in shared:
        assert not cc.locks.holds_any(request.txn.tid)
        assert cc._shared[request.txn.tid] is request
    return True


def test_barrier_index_follows_grants_releases_and_the_active_set(kernel):
    cc = PriorityCeiling(kernel)
    writer = make_txn([(1, "w"), (2, "w")], priority=4)
    reader = make_txn([(1, "r")], priority=6)
    cc.register(writer)
    cc.locks.grant(1, writer.tid, LockMode.WRITE)   # driven directly
    assert cc._entries == [(-4.0, 0, 1)]
    cc.register(reader)                          # raises absolute(1)
    assert cc._entries == [(-6.0, 0, 1)]
    cc.locks.grant(2, writer.tid, LockMode.WRITE)
    assert cc._entries == [(-6.0, 0, 1), (-4.0, 1, 2)]
    cc.deregister(reader)                        # ceiling falls back
    assert cc._entries == [(-4.0, 0, 1), (-4.0, 1, 2)]
    cc.locks.release(1, writer.tid)
    assert cc._entries == [(-4.0, 1, 2)]
    cc.release_all(writer)
    assert cc._entries == [] and cc._entry_of == {}
    cc.deregister(writer)
    assert cc._writers == {} and cc._accessors == {}
    assert [cc.write_ceiling(1), cc.absolute_ceiling(1),
            cc.write_ceiling(2), cc.absolute_ceiling(2)] == [None] * 4


def test_read_lock_enters_the_index_when_a_writer_registers(kernel):
    cc = PriorityCeiling(kernel)
    reader = make_txn([(1, "r")], priority=5)
    cc.register(reader)
    cc.locks.grant(1, reader.tid, LockMode.READ)
    assert cc._entries == []          # read-locked, nobody writes it
    writer = make_txn([(1, "w")], priority=3)
    cc.register(writer)
    assert cc._entries == [(-3.0, 0, 1)]
    cc.deregister(writer)
    assert cc._entries == []


# A static ceiling is read only through the barrier index, which holds
# locked objects only: declarations elsewhere cost no refresh.
def test_declarations_on_unlocked_objects_refresh_nothing(kernel,
                                                          monkeypatch):
    cc = PriorityCeiling(kernel)
    holder = make_txn([(1, "w"), (2, "r")], priority=4)
    cc.register(holder)
    cc.locks.grant(1, holder.tid, LockMode.WRITE)
    cc.locks.grant(2, holder.tid, LockMode.READ)
    refreshed = []
    monkeypatch.setattr(PriorityCeiling, "_refresh_entry",
                        lambda self, oid, record: refreshed.append(oid))
    txn = make_txn([(3, "w"), (4, "r"), (5, "w")], priority=9)
    cc.register(txn)
    assert cc.write_ceiling(3) == 9 and cc.absolute_ceiling(4) == 9
    cc.deregister(txn)
    assert refreshed == []
    assert cc.write_ceiling(3) is None and cc.absolute_ceiling(4) is None


def test_reading_a_read_locked_object_leaves_the_epoch_alone(kernel):
    # Object 1's entry reads its writers only (rw-ceiling 5); readers
    # above, at and below that ceiling come and go without moving it.
    cc = PriorityCeiling(kernel)
    holder = make_txn([(1, "r")], priority=2)
    writer = make_txn([(1, "w")], priority=5)
    cc.register(holder)
    cc.register(writer)
    cc.locks.grant(1, holder.tid, LockMode.READ)
    entries, epoch = list(cc._entries), cc._epoch
    assert entries == [(-5.0, 0, 1)]
    for priority in (8, 5, 3):
        reader = make_txn([(1, "r")], priority=priority)
        cc.register(reader)
        assert cc.absolute_ceiling(1) == max(priority, 5)
        assert cc._epoch == epoch
        cc.deregister(reader)
        assert cc._epoch == epoch and cc._entries == entries


def test_lock_free_waiters_share_one_heap_entry(kernel):
    with shadowed() as log:
        cc = PriorityCeiling(kernel)
        holder = make_txn([(1, "w")], priority=9)
        cc.register(holder)
        cc.locks.grant(1, holder.tid, LockMode.WRITE)
        waiters = [make_txn([(10 + i, "w")], priority=p)
                   for i, p in enumerate((3, 7, 5))]
        grants = []
        for txn in waiters:
            cc.register(txn)
            grants.append(_queue(cc, txn, txn.operations[0][0]))
        assert cc._solo == [] and len(cc._shared) == 3
        # One candidate stands for the group: the priority-7 waiter.
        assert [r.txn for r in cc._grant_order()] == [waiters[1]]
        assert _index_is_consistent(cc)
        # Grant-to-waiter: each release wakes the group's top, whose
        # new lock becomes the barrier of the members left behind.
        for leaving, woken in ((holder, 1), (waiters[1], 2),
                               (waiters[2], 0)):
            cc.release_all(leaving)
            cc.deregister(leaving)
            assert grants[woken] == [10 + woken]
            assert waiters[woken].tid not in cc._shared
            assert _index_is_consistent(cc)
        assert cc._shared == {} and cc._shared_top() is None
    assert log.grants == 3 and log.inheritance_passes > 0


def test_lock_holding_waiter_sole_holder_of_the_top_entry(kernel):
    # `mid` holds the highest-ceiling lock itself, so *its* barrier
    # falls to the second entry while every lock-free waiter sees the
    # first — and the contributions must still be built in enqueue
    # order: mid (solo, queued first) -> low, then the group -> mid.
    with shadowed():
        cc = PriorityCeiling(kernel)
        low = make_txn([(1, "w")], priority=1)
        mid = make_txn([(2, "w"), (3, "w")], priority=5)
        raises_1 = make_txn([(1, "w")], priority=7)
        raises_2 = make_txn([(2, "w")], priority=9)
        free = make_txn([(4, "w")], priority=3)
        for txn in (low, mid, raises_1, raises_2, free):
            cc.register(txn)
        cc.locks.grant(1, low.tid, LockMode.WRITE)
        cc.locks.grant(2, mid.tid, LockMode.WRITE)
        assert [entry[2] for entry in cc._entries] == [2, 1]
        applied = []
        real_apply = cc._apply_inheritance
        cc._apply_inheritance = lambda c: (
            applied.append(list(c.items())), real_apply(c))[1]
        _queue(cc, mid, 3)
        assert cc._ceiling_barrier(mid.tid) == (7.0, 1)
        assert [r.txn for r in cc._solo] == [mid]
        _queue(cc, free, 4)
        assert cc._ceiling_barrier(free.tid) == (9.0, 2)
        assert list(cc._shared) == [free.tid]
        assert applied[-1] == [(low.tid, 5.0), (mid.tid, 3.0)]
        # A solo waiter queued *after* the group's earliest member
        # contributes after it.
        late = make_txn([(5, "w"), (6, "w")], priority=2)
        cc.register(late)
        cc.locks.grant(5, late.tid, LockMode.WRITE)
        _queue(cc, late, 6)
        assert [r.txn for r in cc._solo] == [mid, late]
        assert [tid for tid, __ in applied[-1]] == [low.tid, mid.tid]
        assert _index_is_consistent(cc)
        cc.cancel_async(mid)
        assert [r.txn for r in cc._solo] == [late]
        assert _index_is_consistent(cc)


def test_empty_barrier_contributes_nothing_and_wakes_the_top(kernel):
    with shadowed() as log:
        cc = PriorityCeiling(kernel)
        reader = make_txn([(1, "r")], priority=2)
        writer = make_txn([(1, "w")], priority=8)
        low = make_txn([(2, "r")], priority=4)
        high = make_txn([(3, "r")], priority=6)
        for txn in (reader, writer, low, high):
            cc.register(txn)
        cc.locks.grant(1, reader.tid, LockMode.READ)   # rw-ceiling 8
        order = []
        _queue(cc, low, 2, LockMode.READ, order)
        _queue(cc, high, 3, LockMode.READ, order)
        # The only active writer of object 1 leaves: the lock stays but
        # its ceiling — and with it the whole barrier — disappears, and
        # the read locks the waiters take have no ceiling either.
        cc.deregister(writer)
        assert cc._entries == []
        assert cc._ceiling_barrier(low.tid) == (None, None)
        assert order == [3, 2]
        assert cc.waiting == [] and _index_is_consistent(cc)
    assert log.grants == 2


def test_withdraw_and_cancel_leave_no_trace_in_the_index(kernel):
    with shadowed():
        cc = PriorityCeiling(kernel)
        holder = make_txn([(1, "w")], priority=9)
        parked = make_txn([(2, "w")], priority=5)
        queued = make_txn([(3, "w")], priority=7)
        LockClient(kernel, cc, holder, hold=10.0)
        client = LockClient(kernel, cc, parked, start_delay=1.0)
        kernel.run(until=2.0)
        cc.register(queued)
        _queue(cc, queued, 3)
        assert cc._shared_top().txn is queued
        # cancel_async removes the heap's live top: the next-best
        # member surfaces lazily.
        assert cc.cancel_async(queued) == 1
        assert cc._shared_top().txn is parked
        assert _index_is_consistent(cc)
        # _withdraw (interrupt cleanup) of the last member.
        kernel.interrupt(parked.process, TransactionAbort("test"))
        kernel.run(until=3.0)
        assert client.aborted
        assert cc._shared == {} and cc._shared_top() is None
        assert cc._shared_heap == []
        assert _index_is_consistent(cc)
        cc.deregister(queued)
        kernel.run()


def test_second_request_of_a_waiting_transaction_goes_solo(kernel):
    with shadowed():
        cc = PriorityCeiling(kernel)
        holder = make_txn([(1, "w")], priority=9)
        twice = make_txn([(2, "w"), (3, "w")], priority=5)
        cc.register(holder)
        cc.register(twice)
        cc.locks.grant(1, holder.tid, LockMode.WRITE)
        first = _queue(cc, twice, 2)
        second = _queue(cc, twice, 3)
        assert cc._shared[twice.tid].oid == 2
        assert [r.oid for r in cc._solo] == [3]
        cc.release_all(holder)
        cc.deregister(holder)
        assert first == [2] and second == [3]
        assert _index_is_consistent(cc)


def test_shared_heap_is_compacted_to_the_live_waiters(kernel):
    cc = PriorityCeiling(kernel)
    holder = make_txn([(1, "w")], priority=1000)
    cc.register(holder)
    cc.locks.grant(1, holder.tid, LockMode.WRITE)
    keeper = make_txn([(2, "w")], priority=999)
    cc.register(keeper)
    _queue(cc, keeper, 2)
    # Withdrawn members below a live top never surface on their own.
    for index in range(200):
        txn = make_txn([(3, "w")], priority=index)
        cc.register(txn)
        _queue(cc, txn, 3)
        cc.cancel_async(txn)
        cc.deregister(txn)
    assert len(cc._shared) == 1
    assert len(cc._shared_heap) < 32      # not the 201 ever pushed
    assert cc._shared_top().txn is keeper


def test_waiter_boosted_by_another_agent_is_refiled(kernel):
    # DPCP's situation: `both` waits lock-free at agent B while holding
    # a lock at agent A; when A raises its priority, B must hand the
    # *inherited* priority on to its own barrier's holder.
    with shadowed():
        agent_a = PriorityCeiling(kernel)
        agent_b = PriorityCeiling(kernel)
        both = make_txn([(1, "w"), (11, "w")], priority=3)
        b_holder = make_txn([(12, "w"), (14, "w")], priority=1)
        b_other = make_txn([(15, "w")], priority=0.5)
        b_raise = make_txn([(12, "w"), (15, "w")], priority=9)
        a_waiter = make_txn([(1, "w")], priority=7)
        later = make_txn([(13, "w")], priority=2)

        def parked():
            yield Delay(100.0)

        for txn in (both, b_holder, b_other):
            txn.process = kernel.spawn(parked(), f"tm-{txn.tid}",
                                       priority=txn.priority)
        kernel.run(until=1.0)
        agent_a.register(both)
        agent_a.locks.grant(1, both.tid, LockMode.WRITE)
        for txn in (both, b_holder, b_other, b_raise, later):
            agent_b.register(txn)
        agent_b.locks.grant(12, b_holder.tid, LockMode.WRITE)
        agent_b.locks.grant(15, b_other.tid, LockMode.WRITE)
        _queue(agent_b, both, 11)
        _queue(agent_b, b_holder, 14)       # solo, queued after `both`
        assert list(agent_b._shared) == [both.tid]
        assert b_holder.process.inherited_priority == 3
        # Agent A blocks a priority-7 transaction on `both`.
        agent_a.register(a_waiter)
        _queue(agent_a, a_waiter, 1)
        assert both.process.effective_priority == 7
        # The next change at B sees the boost and re-files `both`, in
        # enqueue order, ahead of the solo waiter that followed it.
        _queue(agent_b, later, 13)
        assert [r.txn for r in agent_b._solo] == [both, b_holder]
        assert list(agent_b._shared) == [later.tid]
        assert b_holder.process.inherited_priority == 7
        assert _index_is_consistent(agent_b)
        # Still boosted when it queues again: solo from the start.  (A
        # registration in between opens a new blocked-at-most-once
        # epoch, so the suite also runs under REPRO_SANITIZE=1.)
        agent_b.cancel_async(both)
        agent_b.register(make_txn([(99, "w")], priority=0.1))
        _queue(agent_b, both, 11)
        assert [r.txn for r in agent_b._solo] == [b_holder, both]
        assert both.tid not in agent_b._shared
        assert b_holder.process.inherited_priority == 7


# ----------------------------------------------------------------------
# settled state: deregister skips its re-evaluation exactly when nothing
# a re-evaluation reads moved since the last one (DESIGN.md §9).  One
# test per input; under the oracle every skipped pass is made after all
# and must grant nothing and re-prioritise nobody.
# ----------------------------------------------------------------------
def _parked(kernel, *txns):
    """Give each transaction a live (parked) manager process."""
    def body():
        yield Delay(100.0)

    for txn in txns:
        txn.process = kernel.spawn(body(), f"tm-{txn.tid}",
                                   priority=txn.priority)
    kernel.run(until=1.0)


def _bystander(cc):
    """A registered transaction that holds nothing and declares only an
    object nobody locks: its deregister alone leaves the protocol
    settled."""
    txn = make_txn([(99, "w")], priority=0.25)
    cc.register(txn)
    return txn


def test_ceiling_drop_on_an_unlocked_object_stays_settled(kernel):
    with shadowed() as log:
        cc = PriorityCeiling(kernel)
        holder = make_txn([(1, "w")], priority=9)
        waiter = make_txn([(2, "w")], priority=5)
        _parked(kernel, holder)
        cc.register(holder)
        cc.register(waiter)
        cc.locks.grant(1, holder.tid, LockMode.WRITE)
        idle = _bystander(cc)
        _queue(cc, waiter, 2)                 # blocks: a pass settles
        assert holder.process.inherited_priority == 5
        assert cc._epoch == cc._settled
        passes = log.passes
        cc.deregister(idle)                   # ceiling of 99 disappears
        assert 99 not in cc._accessors and cc.absolute_ceiling(99) is None
        assert cc._epoch == cc._settled
        # The oracle made the skipped pass itself, as a no-op.
        assert log.skipped_passes == 1 and log.passes == passes + 1
    assert log.grants == 0


def test_ceiling_drop_on_a_locked_object_unsettles(kernel):
    cc = PriorityCeiling(kernel)
    reader = make_txn([(1, "r")], priority=2)
    writer = make_txn([(1, "w")], priority=8)
    waiter = make_txn([(2, "r")], priority=4)
    for txn in (reader, writer, waiter):
        cc.register(txn)
    cc.locks.grant(1, reader.tid, LockMode.READ)        # rw-ceiling 8
    granted = _queue(cc, waiter, 2, LockMode.READ)
    assert cc._epoch == cc._settled and granted == []
    # The writer holds nothing, so only its deregister re-files the
    # entry of object 1 — and must wake the waiter behind it.
    cc.deregister(writer)
    assert granted == [2] and cc.waiting == []


def test_read_share_join_unsettles_though_the_entry_stands(kernel):
    # `mid` holds a read lock alone, so its barrier is the *second*
    # entry and `low` inherits from it.  A reader joining that lock —
    # an immediate grant, which runs no pass — leaves the entry tuple
    # as it was but makes it mid's barrier: the next deregister must
    # move the inheritance from `low` to the new reader.
    with shadowed():
        cc = PriorityCeiling(kernel)
        top_writer = make_txn([(1, "w")], priority=9)
        mid = make_txn([(1, "r"), (3, "w")], priority=5)
        low = make_txn([(2, "w")], priority=1)
        raises_2 = make_txn([(2, "w")], priority=7)
        joiner = make_txn([(1, "r")], priority=10)
        _parked(kernel, mid, low, joiner)
        for txn in (top_writer, mid, low, raises_2, joiner):
            cc.register(txn)
        idle = _bystander(cc)
        cc.locks.grant(1, mid.tid, LockMode.READ)
        cc.locks.grant(2, low.tid, LockMode.WRITE)
        _queue(cc, mid, 3)
        assert cc._ceiling_barrier(mid.tid) == (7.0, 2)
        assert low.process.inherited_priority == 5
        assert cc._epoch == cc._settled
        entry = cc._entry_of[1]
        assert cc.attempt(kernel, joiner.process, joiner, 1,
                          LockMode.READ, on_grant=lambda: None) is DONE
        assert cc._entry_of[1] is entry and cc._entries[0] is entry
        assert cc._epoch != cc._settled
        assert cc._ceiling_barrier(mid.tid) == (9.0, 1)
        cc.deregister(idle)
        assert low.process.inherited_priority is None
        assert joiner.process.inherited_priority == 5


def test_foreign_boost_unsettles(kernel):
    # A waiter at agent B is boosted by agent A: nothing B can see
    # moved, yet B's next deregister must hand the inherited priority
    # on to its own barrier's holder.
    with shadowed():
        agent_a = PriorityCeiling(kernel)
        agent_b = PriorityCeiling(kernel)
        both = make_txn([(1, "w"), (11, "w")], priority=3)
        b_holder = make_txn([(12, "w")], priority=1)
        b_raise = make_txn([(12, "w")], priority=9)
        a_waiter = make_txn([(1, "w")], priority=7)
        _parked(kernel, both, b_holder)
        agent_a.register(both)
        agent_a.locks.grant(1, both.tid, LockMode.WRITE)
        for txn in (both, b_holder, b_raise):
            agent_b.register(txn)
        idle = _bystander(agent_b)
        agent_b.locks.grant(12, b_holder.tid, LockMode.WRITE)
        _queue(agent_b, both, 11)
        assert b_holder.process.inherited_priority == 3
        agent_a.register(a_waiter)
        _queue(agent_a, a_waiter, 1)
        assert both.process.effective_priority == 7
        assert agent_b._epoch == agent_b._settled
        agent_b.deregister(idle)
        assert b_holder.process.inherited_priority == 7
        assert [r.txn for r in agent_b._solo] == [both]


def test_overwritten_loan_below_the_base_priority_unsettles(kernel):
    # Two agents lend to one process, both below its base priority: the
    # effective priority never moves, so the kernel counts nothing —
    # but a pass at A would write A's loan back (and count an
    # inheritance event), so A's deregister may not skip it.
    with shadowed():
        agent_a = PriorityCeiling(kernel)
        agent_b = PriorityCeiling(kernel)
        holder = make_txn([(1, "w"), (11, "w")], priority=8)
        a_waiter = make_txn([(1, "w")], priority=3)
        b_waiter = make_txn([(11, "w")], priority=4)
        _parked(kernel, holder)
        for agent, oid, waiter in ((agent_a, 1, a_waiter),
                                   (agent_b, 11, b_waiter)):
            agent.register(holder)
            agent.register(waiter)
            agent.locks.grant(oid, holder.tid, LockMode.WRITE)
        idle = _bystander(agent_a)
        changes = kernel.inheritance_changes
        _queue(agent_a, a_waiter, 1)
        assert holder.process.inherited_priority == 3
        _queue(agent_b, b_waiter, 11)
        assert holder.process.inherited_priority == 4
        assert kernel.inheritance_changes == changes
        assert agent_a._epoch == agent_a._settled
        events = agent_a.stats.inheritance_events
        agent_a.deregister(idle)
        assert holder.process.inherited_priority == 3
        assert agent_a.stats.inheritance_events == events + 1


def test_boosted_async_waiter_keeps_the_protocol_unsettled(kernel):
    # The waiter's process ends with its abort message still in flight:
    # no event reaches the protocol, yet its waiter_priority() falls
    # from the inherited to the base priority.  The pass that read the
    # inherited one therefore never counts as settled.
    with shadowed():
        cc = PriorityCeiling(kernel)
        bottom = make_txn([(1, "w")], priority=1)
        mid = make_txn([(2, "w"), (3, "w")], priority=5)
        raises_1 = make_txn([(1, "w")], priority=7)
        high = make_txn([(2, "w")], priority=9)

        def finishes():
            yield Delay(5.0)

        _parked(kernel, bottom)
        mid.process = kernel.spawn(finishes(), "tm-mid", priority=5)
        for txn in (bottom, mid, raises_1, high):
            cc.register(txn)
        idle = _bystander(cc)
        cc.locks.grant(1, bottom.tid, LockMode.WRITE)
        cc.locks.grant(2, mid.tid, LockMode.WRITE)
        _queue(cc, high, 2)                   # mid inherits 9
        _queue(cc, mid, 3)                    # waits boosted, on bottom
        assert mid.process.effective_priority == 9
        assert bottom.process.inherited_priority == 9
        assert cc._settled != cc._epoch
        kernel.run(until=6.0)
        assert mid.process.terminated
        cc.deregister(idle)
        assert bottom.process.inherited_priority == 5


def test_every_queue_change_unsettles(kernel):
    # attempt/_withdraw/cancel_async all follow a queue
    # change with a pass of their own; the epoch must not depend on
    # that, so the seam is driven directly.
    cc = PriorityCeiling(kernel)
    holder = make_txn([(1, "w")], priority=9)
    waiter = make_txn([(2, "w")], priority=5)
    cc.register(holder)
    cc.register(waiter)
    cc.locks.grant(1, holder.tid, LockMode.WRITE)
    _queue(cc, waiter, 2)
    (request,) = cc.waiting
    assert cc._epoch == cc._settled
    cc._dequeue(request)
    assert cc._epoch != cc._settled
    cc._after_change()
    assert cc._epoch == cc._settled
    cc._enqueue(request)
    assert cc._epoch != cc._settled and _index_is_consistent(cc)


def test_every_table_transition_unsettles(kernel):
    cc = PriorityCeiling(kernel)
    first = make_txn([(1, "r"), (2, "w")], priority=5)
    second = make_txn([(1, "r")], priority=6)
    cc.register(first)
    cc.register(second)
    for transition in (
            lambda: cc.locks.grant(1, first.tid, LockMode.READ),
            lambda: cc.locks.grant(1, second.tid, LockMode.READ),
            lambda: cc.locks.grant(2, first.tid, LockMode.WRITE),
            lambda: cc.locks.release(1, second.tid),
            lambda: cc.locks.release_all(first.tid)):
        cc._after_change()
        assert cc._epoch == cc._settled
        transition()
        assert cc._epoch != cc._settled
    assert cc._entries == []
