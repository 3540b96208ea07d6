"""Reference oracle for protocol C's wake-up and inheritance decisions.

This is the historical full scan: every decision is re-derived from
first principles — the lock table, the wait list and the *declared
access sets of the active transactions* — with no reference to the
protocol's barrier index, static-ceiling caches or shared/solo waiter
partition.  It is O(waiters x locked objects) per decision, which is
why it lives here and not in ``src/``.

:func:`shadowed` patches :class:`PriorityCeiling` so that every
protocol instance built inside the ``with`` block is checked against
the oracle at three seams:

- every :meth:`_grant_waiter` must grant the request the full scan
  would have granted from the same state;
- every :meth:`_apply_inheritance` must receive the ``contributions``
  the full scan builds — same holder tids, same values, **same
  insertion order** (the order fixes ``set_inherited_priority`` calls
  and trace events) — and the transaction of each tid;
- every :meth:`_after_change` must start with no admissible waiter left
  behind (a lost wake-up);
- every :meth:`deregister` that *skips* its re-evaluation (the protocol
  was settled) has the pass run after all, under the three checks
  above, and it must be a no-op: no grant, and no
  ``set_inherited_priority`` call (the protocol only makes one with a
  priority the process does not carry yet).
"""

from __future__ import annotations

import contextlib
from typing import List, Optional
from unittest import mock

from repro.cc.priority_ceiling import PriorityCeiling


def _declared_write(cc, txn):
    return txn.access_set if cc.exclusive_only else txn.write_set


def write_ceiling(cc, oid) -> Optional[float]:
    priorities = [txn.priority for txn in cc.active.values()
                  if oid in _declared_write(cc, txn)]
    return max(priorities) if priorities else None


def absolute_ceiling(cc, oid) -> Optional[float]:
    priorities = [txn.priority for txn in cc.active.values()
                  if oid in txn.access_set]
    return max(priorities) if priorities else None


def rw_ceiling(cc, oid) -> Optional[float]:
    if cc.locks.write_locked(oid):
        return absolute_ceiling(cc, oid)
    return write_ceiling(cc, oid)


def barrier_entries(cc) -> List[tuple]:
    """Sorted (-ceiling, table_seq, oid) over every locked oid that
    has a ceiling, rebuilt from scratch."""
    entries = []
    for oid in cc.locks.locked_oids():
        ceiling = rw_ceiling(cc, oid)
        if ceiling is not None:
            entries.append((-ceiling, cc.locks.record_seq(oid), oid))
    entries.sort()
    return entries


def ceiling_barrier(cc, txn):
    """(ceiling, oid) of the highest rw-ceiling among objects locked by
    transactions other than ``txn``; (None, None) if there is none."""
    for neg_ceiling, __, oid in barrier_entries(cc):
        if any(holder is not txn for holder in cc.locks.holders(oid)):
            return -neg_ceiling, oid
    return None, None


def blocking_holders(cc, request) -> list:
    __, oid = ceiling_barrier(cc, request.txn)
    if oid is None:
        return []
    return [holder for holder in cc.locks.holders(oid)
            if holder is not request.txn]


def next_grant(cc):
    """The waiter the full scan wakes next: first in (-priority, seq)
    order that passes the ceiling test; None if nobody does."""
    for request in sorted(cc.waiting,
                          key=lambda r: (-r.txn.priority, r.seq)):
        barrier, __ = ceiling_barrier(cc, request.txn)
        if barrier is None or request.txn.priority > barrier:
            return request
    return None


def contributions(cc) -> dict:
    """One pass of the historical inheritance scan over every waiter,
    in enqueue order: {holder tid: priority}."""
    result: dict = {}
    for request in cc.waiting:
        waiter_priority = request.waiter_priority()
        for holder in blocking_holders(cc, request):
            current = result.get(holder.tid)
            if current is None or current < waiter_priority:
                result[holder.tid] = waiter_priority
    return result


class ShadowLog:
    """How many decisions the oracle confirmed (a shadow that checked
    nothing proves nothing)."""

    def __init__(self) -> None:
        self.grants = 0
        self.inheritance_passes = 0
        #: _after_change calls, and the deregisters that made none and
        #: were replayed as a no-op.
        self.passes = 0
        self.skipped_passes = 0


@contextlib.contextmanager
def shadowed():
    """Check every PriorityCeiling decision against the oracle."""
    log = ShadowLog()
    real_grant = PriorityCeiling._grant_waiter
    real_apply = PriorityCeiling._apply_inheritance
    real_after = PriorityCeiling._after_change
    real_deregister = PriorityCeiling.deregister
    replaying: list = []

    def checked_grant(self, request):
        assert not replaying, (
            f"a skipped pass would have woken {request!r}")
        expected = next_grant(self)
        assert request is expected, (
            f"woke {request!r}, the full scan wakes {expected!r}")
        log.grants += 1
        return real_grant(self, request)

    def checked_apply(self, got, holders):
        expected = contributions(self)
        assert list(got.items()) == list(expected.items()), (
            f"contributions {list(got.items())} != full scan "
            f"{list(expected.items())}")
        assert all(holders[tid].tid == tid for tid in got)
        log.inheritance_passes += 1
        return real_apply(self, got, holders)

    def checked_after(self):
        stranded = next_grant(self)
        assert stranded is None, f"lost wake-up: {stranded!r} admissible"
        log.passes += 1
        return real_after(self)

    def checked_deregister(self, txn):
        before = log.passes
        real_deregister(self, txn)
        if log.passes != before:
            return
        # The protocol was settled and skipped its pass: make it.

        def refuse(process, priority):
            raise AssertionError(
                f"a skipped pass would have moved {process!r} from "
                f"{process.inherited_priority} to {priority}")

        replaying.append(txn)
        try:
            with mock.patch.object(self.kernel, "set_inherited_priority",
                                   refuse):
                self._reevaluate()
        finally:
            replaying.pop()
        log.skipped_passes += 1

    with contextlib.ExitStack() as stack:
        for name, wrapper in (("_grant_waiter", checked_grant),
                              ("_apply_inheritance", checked_apply),
                              ("_after_change", checked_after),
                              ("deregister", checked_deregister)):
            stack.enter_context(
                mock.patch.object(PriorityCeiling, name, wrapper))
        yield log
