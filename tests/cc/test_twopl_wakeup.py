"""The 2PL family's dirty-object wake-up and on-demand deadlock search,
at the seams the property tests do not reach by simulation alone: the
lock table driven directly, a waiter leaving a queue, the victim paths
of ``_on_block``."""

import pytest

from repro.cc import (FMLPQueueLock, TwoPhaseLocking,
                      TwoPhaseLockingPriority)
from repro.txn.transaction import DeadlockAbort
from tests.cc import twopl_oracle
from tests.conftest import LockClient, make_txn

BOTH_QUEUE_POLICIES = pytest.mark.parametrize(
    "protocol", [TwoPhaseLocking, TwoPhaseLockingPriority])


def _parked_behind_a_writer(kernel, cc, n_waiters, mode):
    """A writer holding object 1 and ``n_waiters`` requests queued on
    it at t=1..n; the clock stops at t=10."""
    holder = make_txn([(1, "w")], priority=1)
    LockClient(kernel, cc, holder, hold=100.0)
    clients = [LockClient(kernel, cc, make_txn([(1, mode)], priority=2),
                          hold=100.0, start_delay=float(k + 1))
               for k in range(n_waiters)]
    kernel.run(until=10.0)
    assert cc.waiting_count == n_waiters
    return holder, clients


@BOTH_QUEUE_POLICIES
def test_direct_table_release_then_reevaluate_wakes_the_waiter(
        kernel, protocol):
    cc = protocol(kernel)
    holder, (client,) = _parked_behind_a_writer(kernel, cc, 1, "w")
    cc.locks.release(1, holder)  # behind the protocol's back
    cc._reevaluate()
    assert cc.waiting_count == 0
    kernel.run(until=11.0)
    assert client.grant_time(1) == 10.0


@BOTH_QUEUE_POLICIES
def test_direct_table_release_all_then_reevaluate_wakes_the_waiter(
        kernel, protocol):
    cc = protocol(kernel)
    holder, (client,) = _parked_behind_a_writer(kernel, cc, 1, "w")
    assert cc.locks.release_all(holder) == [1]
    cc._reevaluate()
    assert cc.waiting_count == 0
    kernel.run(until=11.0)
    assert client.grant_time(1) == 10.0


@BOTH_QUEUE_POLICIES
def test_granting_one_reader_admits_the_next_in_the_same_call(
        kernel, protocol):
    # The second reader is behind the first in the queue: it becomes
    # admissible only once the first one's grant takes it off the queue.
    cc = protocol(kernel)
    holder, clients = _parked_behind_a_writer(kernel, cc, 3, "r")
    cc.locks.release_all(holder)
    cc._reevaluate()
    assert cc.waiting_count == 0
    assert set(cc.locks.holders(1)) == {client.txn for client in clients}


@BOTH_QUEUE_POLICIES
def test_nothing_dirty_after_a_reevaluation(kernel, protocol):
    cc = protocol(kernel)
    holder, __ = _parked_behind_a_writer(kernel, cc, 2, "w")
    assert cc._dirty == {}
    cc.locks.release_all(holder)
    assert list(cc._dirty) == [1]
    cc._reevaluate()  # grants the first writer; the second stays
    assert cc._dirty == {} and cc.waiting_count == 1


def test_a_waiter_leaving_the_queue_admits_the_one_behind_it(kernel):
    # Reader 2 is compatible with the holder and waits only out of
    # fairness, behind the queued writer.  No lock is released: the
    # writer's withdrawal alone must wake it.
    cc = TwoPhaseLocking(kernel)
    reader1 = make_txn([(1, "r")], priority=1)
    writer = make_txn([(1, "w")], priority=1)
    reader2 = make_txn([(1, "r")], priority=1)
    LockClient(kernel, cc, reader1, hold=100.0)
    cw = LockClient(kernel, cc, writer, start_delay=1.0)
    c2 = LockClient(kernel, cc, reader2, hold=100.0, start_delay=2.0)
    kernel.run(until=5.0)
    assert cc.waiting_count == 2
    kernel.interrupt(writer.process, DeadlockAbort("test"))
    assert cc.waiting_count == 0
    kernel.run(until=6.0)
    assert cw.aborted
    assert c2.grant_time(1) == 5.0


def test_requester_victim_leaves_no_index_entry(kernel):
    cc = TwoPhaseLocking(kernel, victim_policy="requester")
    t1 = make_txn([(1, "w"), (2, "w")], priority=1)
    t2 = make_txn([(2, "w"), (1, "w")], priority=1)
    c1 = LockClient(kernel, cc, t1, hold_each=2.0)
    c2 = LockClient(kernel, cc, t2, hold_each=2.0)
    with twopl_oracle.shadowed() as log:
        kernel.run()
    assert log.cycles == 1
    assert c1.aborted != c2.aborted
    assert cc.waiting == []
    assert cc._waiting_by_oid == {} and cc._waiting_by_tid == {}
    assert cc._dirty == {}


@pytest.mark.parametrize("protocol", [TwoPhaseLocking, FMLPQueueLock])
def test_victim_ahead_in_the_queue_admits_the_requester_at_once(
        kernel, protocol):
    # requester -> victim is a pure queue-order wait: the requester's
    # read is compatible with the holder's, it only queues behind the
    # victim's write.  Aborting the victim admits the requester while
    # it is still inside its own acquire: it must simply carry on
    # (this used to ready() a running process and crash the run).
    cc = protocol(kernel, victim_policy="youngest")
    requester = make_txn([(2, "w"), (1, "r")], priority=1)
    holder = make_txn([(1, "r"), (2, "w")], priority=1)
    # Holds a lock (only lock holders are eligible) and the largest tid.
    victim = make_txn([(3, "w"), (1, "w")], priority=1)
    cr = LockClient(kernel, cc, requester, hold_each=3.0)
    ch = LockClient(kernel, cc, holder, hold_each=1.0)
    cv = LockClient(kernel, cc, victim, hold_each=2.0)
    with twopl_oracle.shadowed() as log:
        kernel.run()
    assert log.cycles == 1 and cc.stats.deadlocks == 1
    assert cv.aborted
    assert cr.grant_time(1) == 3.0  # the instant it asked
    assert cr.finished and ch.finished
    assert cc.stats.blocks == 3 and cc.stats.immediate_grants == 3
    assert cc._waiting_by_tid == {} and len(cc.locks) == 0


@BOTH_QUEUE_POLICIES
def test_on_demand_edges_iterate_like_the_full_graph(kernel, protocol):
    # Lock-conflict and queue-order edges on three contended objects,
    # one of them read-shared; every waiter's successor set must come
    # out element for element as the whole-graph build produces it.
    cc = protocol(kernel)
    scripts = [[(1, "r"), (2, "w"), (3, "w")], [(1, "r"), (3, "w")],
               [(2, "w"), (1, "w")], [(3, "w"), (2, "w")],
               [(1, "w")], [(2, "r")], [(3, "r")]]
    for k, script in enumerate(scripts):
        LockClient(kernel, cc, make_txn(script, priority=k % 3),
                   hold_each=1.0, start_delay=0.25 * k)
    kernel.run(until=20.0)
    assert cc.waiting_count >= 4
    whole = twopl_oracle.waits_for(cc)
    for request in cc.waiting:
        assert (list(cc._waits_on(request.txn))
                == list(whole[request.txn]))
    assert cc._waits_on(make_txn([(9, "w")], priority=0)) == set()


def _order_revealing_pair(operations_a, operations_b):
    """Two transactions whose tids collide in a small set's hash table,
    so iterating a set of both shows which one was inserted first."""
    a = make_txn(operations_a, priority=1)
    while True:
        b = make_txn(operations_b, priority=1)
        if list({a, b}) != list({b, a}):
            return a, b


@BOTH_QUEUE_POLICIES
def test_successors_insert_holders_before_queue_neighbours(
        kernel, protocol):
    # The waiter's two successors collide in the set, so the iteration
    # order — which decides the cycle the search reports — tells
    # whether the lock holder went in before the queue neighbour, as it
    # does when the whole graph is built.
    cc = protocol(kernel)
    holder, ahead = _order_revealing_pair([(1, "w")], [(1, "w")])
    waiter = make_txn([(1, "w")], priority=1)
    LockClient(kernel, cc, holder, hold=100.0)
    LockClient(kernel, cc, ahead, start_delay=1.0)
    LockClient(kernel, cc, waiter, start_delay=2.0)
    kernel.run(until=5.0)
    assert list(cc._waits_on(waiter)) == list({holder, ahead})
    assert (list(cc._waits_on(waiter))
            == list(twopl_oracle.waits_for(cc)[waiter]))
