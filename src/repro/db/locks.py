"""Lock modes and the lock table.

The lock table is *pure state*: which owner holds which mode on which
object, plus the compatibility predicate (including the read→write
upgrade case).  Blocking policy — who waits, in what order, and when a
waiter is re-evaluated — belongs to the concurrency-control protocols in
:mod:`repro.cc`, which is exactly the modular split the paper's
prototyping environment argues for (swapping the protocol touches only
the protocol module).

Owners are opaque hashables, compared by equality.  The protocols of
:mod:`repro.cc` pass transaction ids: an int hashes in C, so no lock-table
operation costs a Python-level ``__hash__`` call.

Hot-path design: each locked object is a slotted :class:`_LockRecord`
carrying a writer count (O(1) ``write_locked``) and an insertion
sequence number.  A protocol layer that keeps a derived view (the
ceiling protocol's barrier index) subscribes to the table and is
handed the oid and its record after every state transition, so the
view stays current without being re-derived or re-fetched — including
when a test or recovery path drives the table directly.  A protocol
that only asks *where a holder left* (the 2PL family's wake-up) plugs
in a departure journal instead (:attr:`LockTable.freed`): nothing is
called, and grants cost nothing.
"""

from __future__ import annotations

import enum
import weakref
from types import MappingProxyType
from typing import (Any, Dict, Hashable, Iterator, List, Mapping,
                    Optional, Set)


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


def compatible(held: LockMode, requested: LockMode) -> bool:
    """Classic two-mode compatibility: only read/read is compatible."""
    return held is LockMode.READ and requested is LockMode.READ


class LockError(Exception):
    """An illegal lock-table transition (grant over a conflict, release
    of a lock not held).  Always indicates a protocol bug, never a
    runtime condition, so it is an assertion-style failure."""


class _LockRecord:
    """Per-object lock state.

    ``writers`` counts WRITE-mode holders (0 or 1 under two-mode
    compatibility, but counted rather than flagged so release never has
    to rescan).  ``seq`` is the order the object entered the table —
    protocol layers use it to reproduce table-iteration tie-breaks
    without iterating.

    No ``__init__``: :meth:`LockTable.grant`, the one constructing
    site, stores the slots (a frame per first lock on an object
    otherwise).
    """

    __slots__ = ("holders", "writers", "seq")


class LockTable:
    """Holders per object, with upgrade-aware compatibility checks.

    No ``__slots__`` here on purpose: tests spy on ``grant`` and the
    sanitizer's mutation suite replaces ``can_grant`` on table
    *instances*, and there is exactly one table per site anyway — the
    per-object :class:`_LockRecord` is the allocation that matters.
    """

    def __init__(self) -> None:
        #: oid -> live _LockRecord (removed as soon as it empties, so
        #: iteration order == insertion order of *currently* locked oids).
        self._records: Dict[int, _LockRecord] = {}
        #: Live read-only view of the above, for a subscribed protocol:
        #: ``oid in table.records`` is "is it locked", and the value is
        #: what :meth:`subscribe`'s listener is handed for that oid.
        self.records: Mapping[int, _LockRecord] = MappingProxyType(
            self._records)
        #: owner -> set of oids it holds (reverse index)
        self._held_by: Dict[Hashable, Set[int]] = {}
        self._seq = 0
        #: Weak reference to the protocol keeping a derived view, or
        #: None; see :meth:`subscribe`.
        self._listener: Optional[weakref.ref] = None
        #: Departure journal: a protocol that only needs to know where
        #: a holder *left* (the 2PL family's wake-up) stores a dict
        #: here, and ``release``/``release_all`` record each freed oid
        #: in it as a key.  Grants are not journaled, and nothing is
        #: called — cheaper than :meth:`subscribe` for that question.
        #: The protocol owns the dict and empties it.
        self.freed: Optional[Dict[int, None]] = None

    def subscribe(self, listener: Any) -> None:
        """Call ``listener.on_lock_change(oid, record)`` after every
        transition (once per freed oid for ``release_all``), with the
        table already in its new state: ``record`` is the oid's live
        :class:`_LockRecord` (``holders``, ``writers``, ``seq`` — read,
        never store), or None when the transition unlocked it.

        Held weakly: the listener is the protocol that owns this table,
        and a strong back-reference would make every finished system
        cyclic garbage that only the collector can free.

        There is one listener slot: subscribing a second object while
        the first is alive raises :class:`LockError` rather than
        silently blinding the first one's view.
        """
        current = (self._listener() if self._listener is not None
                   else None)
        if current is not None and current is not listener:
            raise LockError(
                f"lock table already notifies {current!r}; cannot also "
                f"subscribe {listener!r}")
        self._listener = weakref.ref(listener)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def holders(self, oid: int) -> Dict[Hashable, LockMode]:
        """Current holders of ``oid`` (empty dict if unlocked)."""
        record = self._records.get(oid)
        return dict(record.holders) if record is not None else {}

    def mode_held(self, oid: int, owner: Hashable) -> Optional[LockMode]:
        record = self._records.get(oid)
        return record.holders.get(owner) if record is not None else None

    def is_locked(self, oid: int) -> bool:
        return oid in self._records

    def holds_any(self, owner: Hashable) -> bool:
        """True if ``owner`` holds at least one lock."""
        return owner in self._held_by

    def write_locked(self, oid: int) -> bool:
        record = self._records.get(oid)
        return record is not None and record.writers > 0

    def record_seq(self, oid: int) -> Optional[int]:
        """Insertion order of a locked oid (None if unlocked)."""
        record = self._records.get(oid)
        return record.seq if record is not None else None

    def locks_of(self, owner: Hashable) -> Dict[int, LockMode]:
        """All locks held by ``owner`` as {oid: mode}."""
        records = self._records
        return {oid: records[oid].holders[owner]
                for oid in self._held_by.get(owner, ())}

    def locked_oids(self) -> Iterator[int]:
        """Objects with at least one holder, in lock-insertion order."""
        return iter(self._records)

    def owners(self) -> Set[Hashable]:
        """All owners currently holding at least one lock."""
        return {owner for owner, oids in self._held_by.items() if oids}

    def can_grant(self, oid: int, owner: Hashable,
                  mode: LockMode) -> bool:
        """True if granting would not conflict with *other* holders.

        Handles re-grant (already holding an equal or stronger mode) and
        the read→write upgrade (allowed only for a sole holder).
        """
        record = self._records.get(oid)
        if record is None:
            return True
        holders = record.holders
        held = holders.get(owner)
        if held is LockMode.WRITE:
            return True  # already strongest
        if held is LockMode.READ and mode is LockMode.READ:
            return True
        if mode is LockMode.READ:
            return record.writers == 0
        # WRITE request: no other holder of any mode may remain.
        return len(holders) == (1 if held is not None else 0)

    def conflicting_holders(self, oid: int, owner: Hashable,
                            mode: LockMode) -> List[Hashable]:
        """Other owners whose held mode conflicts with ``mode``."""
        record = self._records.get(oid)
        if record is None:
            return []
        # compatible(), unrolled on the requested mode: a read conflicts
        # with the writers, anything else with every other holder.
        if mode is LockMode.READ:
            return [o for o, m in record.holders.items()
                    if o != owner and m is not LockMode.READ]
        return [o for o in record.holders if o != owner]

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def grant(self, oid: int, owner: Hashable, mode: LockMode) -> None:
        """Record the lock.  Raises :class:`LockError` on conflict — the
        protocol must have checked :meth:`can_grant` first."""
        if not self.can_grant(oid, owner, mode):
            raise LockError(
                f"grant {mode} on {oid} to {owner!r} conflicts with "
                f"{self.holders(oid)}")
        record = self._records.get(oid)
        if record is None:
            record = _LockRecord()
            record.holders = {}
            record.writers = 0
            record.seq = self._seq
            self._seq += 1
            self._records[oid] = record
        holders = record.holders
        held = holders.get(owner)
        if held is LockMode.WRITE:
            return  # idempotent: write subsumes everything
        if mode is LockMode.WRITE:
            holders[owner] = LockMode.WRITE
            record.writers += 1
        else:
            holders[owner] = LockMode.READ
        held_oids = self._held_by.get(owner)
        if held_oids is None:
            self._held_by[owner] = {oid}
        else:
            held_oids.add(oid)
        if self._listener is not None:
            listener = self._listener()
            if listener is not None:
                listener.on_lock_change(oid, record)

    def release(self, oid: int, owner: Hashable) -> None:
        """Release one lock.  Raises :class:`LockError` if not held."""
        record = self._records.get(oid)
        if record is None or owner not in record.holders:
            raise LockError(f"{owner!r} does not hold a lock on {oid}")
        if record.holders.pop(owner) is LockMode.WRITE:
            record.writers -= 1
        if not record.holders:
            del self._records[oid]
            record = None
        self._held_by[owner].discard(oid)
        if not self._held_by[owner]:
            del self._held_by[owner]
        if self.freed is not None:
            self.freed[oid] = None
        if self._listener is not None:
            listener = self._listener()
            if listener is not None:
                listener.on_lock_change(oid, record)

    def release_all(self, owner: Hashable) -> List[int]:
        """Release every lock held by ``owner``; returns the freed oids."""
        oids = sorted(self._held_by.get(owner, ()))
        records = self._records
        for oid in oids:
            record = records[oid]
            if record.holders.pop(owner) is LockMode.WRITE:
                record.writers -= 1
            if not record.holders:
                del records[oid]
        self._held_by.pop(owner, None)
        freed = self.freed
        if freed is not None:
            for oid in oids:
                freed[oid] = None
        if self._listener is not None and oids:
            listener = self._listener()
            if listener is not None:
                on_lock_change = listener.on_lock_change
                for oid in oids:
                    on_lock_change(
                        oid, records[oid] if oid in records else None)
        return oids

    def __len__(self) -> int:
        """Total number of (owner, oid) lock grants outstanding."""
        return sum(len(record.holders)
                   for record in self._records.values())
