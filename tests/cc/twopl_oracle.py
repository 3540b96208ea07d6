"""Reference oracle for the 2PL family's wake-up and deadlock decisions.

This is the historical full scan: every decision is re-derived from the
lock table's holders and the wait list alone — no per-object or
per-transaction queue index, no dirty set, no on-demand successor sets.
It is O(waiters^2) per decision, which is why it lives here and not in
``src/``.

:func:`shadowed` patches :class:`TwoPhaseLocking` (hence L, P, PI, MPCP
and FMLP) so that every protocol instance built inside the ``with``
block is checked against the oracle at three seams:

- every :meth:`_grant_waiter` must grant the request the full scan —
  the whole wait set sorted, first admissible — would have granted from
  the same state;
- when :meth:`_reevaluate` returns, no waiter may be admissible (a lost
  wake-up);
- every deadlock search of :meth:`_on_block` must return the cycle the
  search over the *whole* waits-for graph returns: same tids, **same
  node order** (the order fixes the victim under every policy and the
  abort message).

Lock owners are tids, so the graph's nodes are tids too.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional
from unittest import mock

from repro.cc import twopl
from repro.cc.twopl import TwoPhaseLocking
from repro.db.locks import LockMode


# ----------------------------------------------------------------------
# admission, from holders and the wait list only
# ----------------------------------------------------------------------
def can_grant(cc, txn, oid, mode) -> bool:
    holders = cc.locks.holders(oid)
    held = holders.pop(txn.tid, None)
    if held is LockMode.WRITE:
        return True
    if mode is LockMode.READ:
        return all(other is LockMode.READ for other in holders.values())
    return not holders


def conflicting_holders(cc, request) -> list:
    holders = cc.locks.holders(request.oid)
    return [holder for holder, held in holders.items()
            if holder != request.txn.tid
            and not (held is LockMode.READ
                     and request.mode is LockMode.READ)]


def ahead_of(cc, other, own) -> bool:
    """Is the queued ``other`` ahead of the queued ``own``?"""
    if cc.queue_policy == "fifo":
        return other.seq < own.seq
    return ((other.txn.priority, -other.seq)
            > (own.txn.priority, -own.seq))


def own_request(cc, txn, oid):
    """The transaction's first queued request on ``oid`` — the entry
    the queue-fairness test ranks the transaction by."""
    for request in cc.waiting:
        if request.txn is txn and request.oid == oid:
            return request
    return None


def admissible(cc, request) -> bool:
    if not can_grant(cc, request.txn, request.oid, request.mode):
        return False
    own = own_request(cc, request.txn, request.oid)
    return not any(other.oid == request.oid
                   and other.txn is not request.txn
                   and ahead_of(cc, other, own)
                   for other in cc.waiting)


def grant_key(cc):
    if cc.queue_policy == "fifo":
        return lambda request: request.seq
    return lambda request: (-request.txn.priority, request.seq)


def next_grant(cc):
    """The waiter the full scan wakes next; None if nobody is
    admissible."""
    for request in sorted(cc.waiting, key=grant_key(cc)):
        if admissible(cc, request):
            return request
    return None


# ----------------------------------------------------------------------
# deadlock search over the whole graph
# ----------------------------------------------------------------------
def waits_for(cc) -> dict:
    """The whole waits-for graph as ``{waiter tid: set(target
    tids)}``, built in the historical order: lock-conflict edges of
    every waiter (wait list order), then queue-order edges by an
    all-pairs scan."""
    edges: dict = {}
    for request in cc.waiting:
        targets = edges.setdefault(request.txn.tid, set())
        for holder in conflicting_holders(cc, request):
            targets.add(holder)
    for request in cc.waiting:
        for other in cc.waiting:
            if (other.oid == request.oid
                    and other.txn is not request.txn
                    and ahead_of(cc, other, request)):
                edges[request.txn.tid].add(other.txn.tid)
    return edges


def find_cycle(edges: dict, start) -> Optional[List]:
    """The historical depth-first search, verbatim."""
    path: list = []
    on_path: set = set()
    visited: set = set()

    def dfs(node):
        path.append(node)
        on_path.add(node)
        for successor in edges.get(node, ()):
            if successor == start:
                return list(path)
            if successor in on_path:
                continue  # a cycle not through start
            if successor in visited:
                continue
            found = dfs(successor)
            if found is not None:
                return found
        path.pop()
        on_path.discard(node)
        visited.add(node)
        return None

    return dfs(start)


def cycle_through(cc, tid) -> Optional[List]:
    return find_cycle(waits_for(cc), tid)


# ----------------------------------------------------------------------
# the shadow
# ----------------------------------------------------------------------
class ShadowLog:
    """How many decisions the oracle confirmed (a shadow that checked
    nothing proves nothing)."""

    def __init__(self) -> None:
        self.grants = 0
        self.searches = 0
        self.cycles = 0


@contextlib.contextmanager
def shadowed():
    """Check every TwoPhaseLocking-family decision against the oracle."""
    log = ShadowLog()
    real_grant = TwoPhaseLocking._grant_waiter
    real_reevaluate = TwoPhaseLocking._reevaluate
    real_find = twopl.find_cycle_through

    def checked_grant(self, request):
        expected = next_grant(self)
        assert request is expected, (
            f"woke {request!r}, the full scan wakes {expected!r}")
        log.grants += 1
        return real_grant(self, request)

    def checked_reevaluate(self):
        real_reevaluate(self)
        stranded = next_grant(self)
        assert stranded is None, f"lost wake-up: {stranded!r} admissible"

    def checked_find(start, successors):
        cc = successors.__self__
        expected = cycle_through(cc, start)
        found = real_find(start, successors)
        # Lists of tids compare node for node.
        assert found == expected, (
            f"cycle {found} != full graph's {expected}")
        log.searches += 1
        log.cycles += found is not None
        return found

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            TwoPhaseLocking, "_grant_waiter", checked_grant))
        stack.enter_context(mock.patch.object(
            TwoPhaseLocking, "_reevaluate", checked_reevaluate))
        stack.enter_context(mock.patch.object(
            twopl, "find_cycle_through", checked_find))
        yield log
