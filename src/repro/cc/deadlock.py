"""Deadlock detection and resolution for the 2PL protocols.

Under two-phase locking a cycle of transactions each waiting for a lock
held by the next can form; the paper attributes the sharp rise of
deadline misses for 2PL at larger transaction sizes to deadlocks, whose
probability "would go up with the fourth power of the transaction size"
[Gray81].  The priority ceiling protocol never calls into this module;
over an open arrival stream its cycles are the rare rising-ceiling ones
of DESIGN.md §4b.1, broken by deadline aborts.

Detection runs at block time (continuous detection): when a request
joins the wait set we look for a cycle through it, and if one exists a
victim is chosen and aborted (it restarts from scratch, keeping its
original deadline and priority — the classical restart model).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional, Set

VICTIM_POLICIES = ("none", "requester", "lowest_priority", "youngest")


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
        if successor == start:  # tids: equal, not always identical
            return list(path)
        if successor in entered:
            continue  # on the path (a cycle not through start) or done
        entered.add(successor)
        found = _search(successor, start, successors, path, entered)
        if found is not None:
            return found
    path.pop()
    return None


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
