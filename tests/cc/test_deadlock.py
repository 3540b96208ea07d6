"""Waits-for graph and victim selection."""

import pytest

from repro.cc import WaitsForGraph, build_waits_for, choose_victim
from repro.db import LockMode, LockTable
from repro.cc.base import Request
from tests.conftest import make_txn


def make_request(txn, oid, mode, seq):
    """A parked-nowhere request (``Request`` has no ``__init__``: the
    protocol's constructing sites store the slots)."""
    request = Request()
    request.txn, request.oid, request.mode = txn, oid, mode
    request.process, request.seq, request.since = None, seq, 0.0
    request.on_grant = None
    return request


def test_no_cycle_in_a_chain():
    graph = WaitsForGraph()
    graph.add_edges("a", ["b"])
    graph.add_edges("b", ["c"])
    assert graph.find_cycle_through("a") is None


def test_two_cycle_detected():
    graph = WaitsForGraph()
    graph.add_edges("a", ["b"])
    graph.add_edges("b", ["a"])
    cycle = graph.find_cycle_through("a")
    assert cycle is not None
    assert set(cycle) == {"a", "b"}


def test_long_cycle_detected_through_start_only():
    graph = WaitsForGraph()
    graph.add_edges("a", ["b"])
    graph.add_edges("b", ["c"])
    graph.add_edges("c", ["a"])
    # Also a separate cycle not involving "x".
    graph.add_edges("y", ["z"])
    graph.add_edges("z", ["y"])
    assert set(graph.find_cycle_through("a")) == {"a", "b", "c"}
    graph.add_edges("x", ["y"])
    assert graph.find_cycle_through("x") is None  # x not on the cycle


def test_self_edges_ignored():
    graph = WaitsForGraph()
    graph.add_edges("a", ["a"])
    assert graph.find_cycle_through("a") is None


def test_branching_graph_finds_cycle():
    graph = WaitsForGraph()
    graph.add_edges("a", ["b", "c"])
    graph.add_edges("b", ["d"])
    graph.add_edges("c", ["a"])
    assert set(graph.find_cycle_through("a")) == {"a", "c"}


def test_build_waits_for_connects_waiters_to_conflicting_holders():
    table = LockTable()
    t1 = make_txn([(1, "w")], priority=1)
    t2 = make_txn([(1, "w")], priority=2)
    table.grant(1, t1, LockMode.WRITE)
    request = make_request(t2, 1, LockMode.WRITE, seq=0)
    graph = build_waits_for([request], table)
    assert graph.find_cycle_through(t2) is None
    # Close the cycle: t1 waits on something t2 holds.
    table.grant(2, t2, LockMode.WRITE)
    request_back = make_request(t1, 2, LockMode.WRITE, seq=1)
    graph = build_waits_for([request, request_back], table)
    assert graph.find_cycle_through(t2) is not None


def test_read_locks_do_not_create_edges_for_readers():
    table = LockTable()
    t1 = make_txn([(1, "r")], priority=1)
    t2 = make_txn([(1, "r")], priority=2)
    table.grant(1, t1, LockMode.READ)
    request = make_request(t2, 1, LockMode.READ, seq=0)
    graph = build_waits_for([request], table)
    assert graph.find_cycle_through(t2) is None


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
