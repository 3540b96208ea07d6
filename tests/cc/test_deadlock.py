"""Cycle search, the 2PL blocked-by relation and victim selection."""

import pytest

from repro.cc import TwoPhaseLocking, choose_victim
from repro.cc.base import CONFLICT, QUEUE
from repro.cc.deadlock import find_cycle_through
from repro.kernel import Kernel
from tests.conftest import LockClient, make_txn


def cycle_through(edges, start):
    """``find_cycle_through`` over a dict's successor lists."""
    return find_cycle_through(start, lambda node: edges.get(node, ()))


def test_no_cycle_in_a_chain():
    assert cycle_through({"a": ["b"], "b": ["c"]}, "a") is None


def test_two_cycle_detected():
    cycle = cycle_through({"a": ["b"], "b": ["a"]}, "a")
    assert cycle is not None
    assert set(cycle) == {"a", "b"}


def test_long_cycle_detected_through_start_only():
    # Also a separate cycle not involving "x".
    edges = {"a": ["b"], "b": ["c"], "c": ["a"], "y": ["z"], "z": ["y"]}
    assert set(cycle_through(edges, "a")) == {"a", "b", "c"}
    edges["x"] = ["y"]
    assert cycle_through(edges, "x") is None  # x not on the cycle


def test_branching_graph_finds_cycle():
    edges = {"a": ["b", "c"], "b": ["d"], "c": ["a"]}
    assert set(cycle_through(edges, "a")) == {"a", "c"}


def test_cycle_closes_over_equal_but_distinct_ints():
    # Lock owners are tids: a successor equal to the start closes the
    # cycle even when it is another int object (ints > 256 are not
    # cached, so identity would miss it).
    start = int("1000")
    edges = {start: [int("1001")], int("1001"): [int("1000")]}
    assert edges[int("1001")][0] is not start
    assert cycle_through(edges, start) == [1000, 1001]


def test_self_edges_ignored():
    # An upgrade conflicts with the other reader, never with the
    # requester's own read lock: no transaction waits for itself.
    kernel = Kernel(seed=1)
    cc = TwoPhaseLocking(kernel)
    upgrader = make_txn([(1, "r"), (1, "w")], priority=1)
    reader = make_txn([(1, "r")], priority=1)
    LockClient(kernel, cc, upgrader, hold_each=1.0)
    LockClient(kernel, cc, reader, hold=10.0)
    kernel.run(until=5.0)
    assert cc.waiting_txns() == [upgrader]
    assert list(cc.blocked_by(upgrader.tid)) == [reader.tid]
    assert find_cycle_through(upgrader.tid, cc.blocked_by) is None


def test_blocked_by_connects_waiters_to_conflicting_holders():
    kernel = Kernel(seed=1)
    cc = TwoPhaseLocking(kernel)
    t1 = make_txn([(1, "w"), (2, "w")], priority=1)
    t2 = make_txn([(2, "w"), (1, "w")], priority=1)
    LockClient(kernel, cc, t1, hold_each=2.0)
    LockClient(kernel, cc, t2, start_delay=0.5, hold_each=2.0)
    kernel.run(until=1.0)
    assert cc.blocked_by(t2.tid) == set()  # holds o2, waits for nothing
    kernel.run(until=2.5)
    # t2 waits for o1 (held by t1), t1 for o2 (held by t2).
    assert cc.blocked_by(t1.tid, CONFLICT) == [t2.tid]
    assert cc.blocked_by(t2.tid, CONFLICT) == [t1.tid]
    assert (set(find_cycle_through(t2.tid, cc.blocked_by))
            == {t1.tid, t2.tid})
    assert cc.stats.deadlocks == 1


def test_read_locks_do_not_create_edges_for_readers():
    # A reader queued behind a writer waits for the writer (QUEUE) but
    # not for the reader holding the lock (no CONFLICT).
    kernel = Kernel(seed=1)
    cc = TwoPhaseLocking(kernel)
    holder = make_txn([(1, "r")], priority=1)
    writer = make_txn([(1, "w")], priority=1)
    reader = make_txn([(1, "r")], priority=1)
    LockClient(kernel, cc, holder, hold=10.0)
    LockClient(kernel, cc, writer, start_delay=1.0)
    LockClient(kernel, cc, reader, start_delay=2.0)
    kernel.run(until=5.0)
    assert cc.blocked_by(reader.tid, CONFLICT) == []
    assert cc.blocked_by(reader.tid, QUEUE) == {writer.tid}
    assert cc.blocked_by(writer.tid) == {holder.tid}


def test_choose_victim_policies():
    low = make_txn([(1, "w")], priority=1)
    high = make_txn([(1, "w")], priority=9)
    cycle = [low, high]
    assert choose_victim(cycle, "requester", high) is high
    assert choose_victim(cycle, "lowest_priority", high) is low
    assert choose_victim(cycle, "youngest", low) is max(cycle,
                                                        key=lambda t: t.tid)


def test_choose_victim_rejects_none_and_unknown():
    txn = make_txn([(1, "w")], priority=1)
    with pytest.raises(ValueError):
        choose_victim([txn], "none", txn)
    with pytest.raises(ValueError):
        choose_victim([txn], "dice", txn)
