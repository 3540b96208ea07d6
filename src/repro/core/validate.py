"""Runtime invariant auditing.

The prototyping environment's stated first goal is "evaluation of the
prototyping environment itself in terms of correctness".  This module
provides attachable auditors that watch a live system and raise
:class:`InvariantViolation` the moment a protocol breaks its contract:

- :class:`LockDisciplineAuditor` — every transaction obeys *strict*
  two-phase locking: lock acquisitions strictly precede the single
  release point; nothing is granted to a transaction that already
  released ("Once a transaction releases a lock, it cannot acquire any
  new lock"), and no conflicting grant ever coexists in the table;
- :class:`CeilingAuditor` — every grant under the priority ceiling
  protocol satisfied the admission rule at grant time.

Auditors monkey-wrap the lock table of a protocol instance; they are
meant for tests and debugging runs (they add overhead proportional to
lock traffic).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set

from ..cc.base import ConcurrencyControl
from ..cc.priority_ceiling import PriorityCeiling
from ..db.locks import compatible


class InvariantViolation(AssertionError):
    """A protocol contract was broken (always a bug, never a run
    condition)."""


class LockDisciplineAuditor:
    """Checks strict 2PL discipline on a protocol's lock table."""

    def __init__(self, cc: ConcurrencyControl):
        self.cc = cc
        #: Owners that have executed their release point (cleared if
        #: the transaction restarts and re-acquires).
        self._released: Set[Hashable] = set()
        #: Grant/release counts per owner, for reporting.
        self.grants: Dict[Hashable, int] = {}
        self.releases: Dict[Hashable, int] = {}
        self.violations: List[str] = []
        self._wrap()

    def _wrap(self) -> None:
        table = self.cc.locks
        original_grant = table.grant
        original_release_all = table.release_all

        def audited_grant(oid, owner, mode):
            if owner in self._released and not table.locks_of(owner):
                # A grant after release is legal only for a restarted
                # transaction (deadlock victim), which begins a fresh
                # growing phase.
                restarts = getattr(owner, "restarts", 0)
                if restarts == 0:
                    self._fail(f"{owner!r} acquired {mode} on {oid} "
                               f"after its shrinking phase (strict 2PL "
                               f"violation)")
                self._released.discard(owner)
            holders = table.holders(oid)
            for other, held in holders.items():
                if other is not owner and not compatible(held, mode):
                    self._fail(f"conflicting grant: {owner!r}:{mode} "
                               f"vs {other!r}:{held} on {oid}")
            self.grants[owner] = self.grants.get(owner, 0) + 1
            return original_grant(oid, owner, mode)

        def audited_release_all(owner):
            freed = original_release_all(owner)
            if freed:
                self._released.add(owner)
                self.releases[owner] = self.releases.get(owner, 0) + 1
            return freed

        table.grant = audited_grant
        table.release_all = audited_release_all

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        raise InvariantViolation(message)

    @property
    def clean(self) -> bool:
        return not self.violations


class CeilingAuditor:
    """Re-checks the PCP admission rule on every grant.

    At grant time, the grantee's priority must exceed the highest
    rw-ceiling among objects locked by *other* transactions (or no such
    ceiling may exist) — recomputed here from the lock table and the
    declared access sets of the active transactions, never from the
    protocol's barrier index or cached ceilings (an auditor that reads
    the index it audits would share its mistakes).
    """

    def __init__(self, cc: PriorityCeiling):
        if not isinstance(cc, PriorityCeiling):
            raise TypeError("CeilingAuditor requires a PriorityCeiling")
        self.cc = cc
        self.checked = 0
        self.violations: List[str] = []
        self._wrap()

    def _barrier(self, owner):
        """(ceiling, oid) of the highest rw-ceiling among objects
        locked by transactions other than ``owner``."""
        cc = self.cc
        best = best_oid = None
        for oid in cc.locks.locked_oids():
            if all(holder is owner for holder in cc.locks.holders(oid)):
                continue
            write_locked = cc.locks.write_locked(oid)
            for txn in cc.active.values():
                declared = (txn.access_set
                            if write_locked or cc.exclusive_only
                            else txn.write_set)
                if oid in declared and (best is None
                                        or txn.priority > best):
                    best, best_oid = txn.priority, oid
        return best, best_oid

    def _wrap(self) -> None:
        table = self.cc.locks
        original_grant = table.grant

        def audited_grant(oid, owner, mode):
            barrier, barrier_oid = self._barrier(owner)
            self.checked += 1
            if barrier is not None and owner.priority <= barrier:
                message = (f"grant of {mode} on {oid} to txn "
                           f"{owner.tid} (prio {owner.priority}) "
                           f"despite ceiling {barrier} on object "
                           f"{barrier_oid}")
                self.violations.append(message)
                raise InvariantViolation(message)
            return original_grant(oid, owner, mode)

        table.grant = audited_grant

    @property
    def clean(self) -> bool:
        return not self.violations
