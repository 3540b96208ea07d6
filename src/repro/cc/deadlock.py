"""Waits-for graph and deadlock resolution for the 2PL protocols.

Under two-phase locking a cycle of transactions each waiting for a lock
held by the next can form; the paper attributes the sharp rise of
deadline misses for 2PL at larger transaction sizes to deadlocks, whose
probability "would go up with the fourth power of the transaction size"
[Gray81].  The priority ceiling protocol never calls into this module —
its admission rule makes cycles impossible, which the integration tests
assert.

Detection runs at block time (continuous detection): when a request
joins the wait set we look for a cycle through it, and if one exists a
victim is chosen and aborted (it restarts from scratch, keeping its
original deadline and priority — the classical restart model).
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Set)

VICTIM_POLICIES = ("none", "requester", "lowest_priority", "youngest")


class WaitsForGraph:
    """Directed graph: waiter -> holders it waits for."""

    def __init__(self) -> None:
        self._edges: Dict[Hashable, Set[Hashable]] = {}

    def add_edges(self, waiter: Hashable,
                  holders: Iterable[Hashable]) -> None:
        targets = self._edges.setdefault(waiter, set())
        for holder in holders:
            if holder is not waiter:
                targets.add(holder)

    def find_cycle_through(self, start: Hashable) -> Optional[List]:
        """Return a cycle containing ``start`` as a node list (without
        the repeated node), or None."""
        edges = self._edges
        return find_cycle_through(start,
                                  lambda node: edges.get(node, ()))

    def __contains__(self, node: Hashable) -> bool:
        return node in self._edges


def find_cycle_through(start: Hashable,
                       successors: Callable[[Hashable], Iterable]
                       ) -> Optional[List]:
    """Depth-first search for a cycle containing ``start``; returns it
    as a node list (without the repeated node), or None.

    ``successors(node)`` is called exactly once per reachable node, when
    the search first enters it, and is iterated in its own order — so a
    caller may build each node's edges on demand, and two callers whose
    successor iterables agree element for element find the same cycle.
    Cycles that do not pass through ``start`` are ignored.
    """
    return _search(start, start, successors, [], {start})


def _search(node: Hashable, start: Hashable,
            successors: Callable[[Hashable], Iterable],
            path: List[Hashable], entered: Set[Hashable]
            ) -> Optional[List]:
    """One level of :func:`find_cycle_through`'s depth-first search.

    A module-level function rather than a closure: a closure that
    recurses through its own cell is a reference cycle, and every
    search would hand its path (the transactions on it) to the cyclic
    collector instead of freeing it on return.
    """
    path.append(node)
    for successor in successors(node):
        if successor is start:
            return list(path)
        if successor in entered:
            continue  # on the path (a cycle not through start) or done
        entered.add(successor)
        found = _search(successor, start, successors, path, entered)
        if found is not None:
            return found
    path.pop()
    return None


def build_waits_for(waiting_requests, lock_table) -> WaitsForGraph:
    """Construct the lock-conflict graph from a wait set and lock table:
    each waiter waits for every holder whose lock conflicts with its
    request.

    Lock conflicts are only half of the 2PL waits-for relation: a waiter
    also waits for the waiters queued *ahead* of it on the same object.
    Those edges depend on the queue policy, which the lock table does
    not know; :meth:`TwoPhaseLocking._waits_for` adds them on top.
    """
    graph = WaitsForGraph()
    for request in waiting_requests:
        holders = lock_table.conflicting_holders(request.oid, request.txn,
                                                 request.mode)
        graph.add_edges(request.txn, holders)
    return graph


def choose_victim(cycle: List, policy: str, requester) -> Hashable:
    """Pick which transaction in ``cycle`` dies.

    - ``none``            — nobody: the cycle persists until a member's
      deadline expires and its abort releases the locks.  This is the
      paper's model — it describes no deadlock-resolution mechanism
      other than the hard-deadline abort, and attributes 2PL's sharp
      miss growth to deadlocks going up "with the fourth power of the
      transaction size";
    - ``requester``       — the transaction that closed the cycle dies
      (simple, used with the no-priority baseline);
    - ``lowest_priority`` — the least urgent transaction dies, so the
      deadlock never delays a high-priority transaction longer than
      detection takes;
    - ``youngest``        — the most recently started (largest tid) dies.

    ``none`` is not accepted here (there is no victim to return); the
    caller must branch before calling.
    """
    if policy not in VICTIM_POLICIES or policy == "none":
        raise ValueError(f"victim selection needs a policy from "
                         f"{VICTIM_POLICIES[1:]}, got {policy!r}")
    if policy == "requester":
        return requester
    if policy == "lowest_priority":
        return min(cycle, key=lambda txn: (txn.priority, -txn.tid))
    return max(cycle, key=lambda txn: txn.tid)
