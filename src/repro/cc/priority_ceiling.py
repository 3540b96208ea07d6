"""The priority ceiling protocol for real-time databases (protocol C).

Implements §3.2 of the paper.  Three ceilings exist per data object:

- **write-priority ceiling** — priority of the highest-priority active
  transaction that may *write* the object;
- **absolute-priority ceiling** — priority of the highest-priority
  active transaction that may *read or write* the object;
- **rw-priority ceiling** — set dynamically when the object is locked:
  equal to the absolute ceiling while write-locked, and to the write
  ceiling while read-locked.

Admission rule: "When a transaction attempts to lock a data object, the
transaction's priority is compared with the highest rw-priority ceiling
of all data objects currently locked by other transactions.  If the
priority of the transaction is not higher than the rw-priority ceiling,
the access request will be denied, and the transaction will be blocked"
— in which case the holder(s) of that highest-ceiling lock inherit the
blocked transaction's priority.

Under this rule "it is not necessary to check for the possibility of
read-write conflicts": the ceiling test subsumes lock conflicts.  We
keep the conflict check as a *hard assertion* — if it ever failed, the
implementation (not the run) would be wrong.

Ceiling scope note (documented deviation): Sha et al. define ceilings
over a fixed, statically known task set.  The paper's workload is an
open arrival stream, so — as in the real-time database adaptations of
the protocol — ceilings here are computed over the *currently active*
(registered) transactions' declared read/write sets.  Each transaction
predeclares its access sets, exactly the information the paper's
workload generator specifies ("size of their read-sets and write-sets").

``exclusive_only=True`` gives the §5 ablation: read semantics are
ignored, every lock is exclusive (the shared request body takes it in
WRITE mode, whoever asks) and both static ceilings collapse to the
absolute ceiling.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional

from ..db.locks import LockError, LockMode
from ..kernel.process import ProcessState
from ..txn.transaction import Transaction
from .base import (BARRIER, CONFLICT, QUEUE, ConcurrencyControl, Request,
                   by_priority_then_seq, by_seq)

_TERMINATED = ProcessState.TERMINATED


class PriorityCeiling(ConcurrencyControl):
    """Protocol C (and its exclusive-lock ablation)."""

    name = "C"
    cpu_policy = "priority"

    def __init__(self, kernel, exclusive_only: bool = False):
        super().__init__(kernel)
        self.exclusive_only = exclusive_only
        if exclusive_only:
            self.name = "Cx"
        # The protocol's tables are keyed by tid throughout, as the
        # lock table is (see ``active``).
        #: oid -> {tid: priority} of the active transactions declaring
        #: a write on it (whose max is the static write-priority
        #: ceiling), and declaring any access (absolute ceiling).  A
        #: ceiling is computed only where it is read.
        self._writers: Dict[int, Dict[int, float]] = {}
        self._accessors: Dict[int, Dict[int, float]] = {}
        #: Barrier index: sorted (-rw_ceiling, table_seq, oid) over the
        #: locked oids that have a ceiling, and each oid's current entry.
        #: Kept current by _refresh_entry from the lock table's
        #: change notifications and from register/deregister.
        self._entries: List[tuple] = []
        self._entry_of: Dict[int, tuple] = {}
        self.locks.subscribe(self)
        #: oid -> lock record of every locked oid (the table's live
        #: read-only view).
        self._locked = self.locks.records
        #: Wake-up index (see DESIGN.md §9).  Waiters whose transaction
        #: holds no lock all see the barrier ``_entries[0]``; they are
        #: the *shared* group: tid -> its request, plus a lazy-deletion
        #: heap of (-priority, seq, request) whose live top stands for
        #: the whole group.  Everyone else waits in ``_solo`` (enqueue
        #: order) and is evaluated one by one.
        self._shared: Dict[int, Request] = {}
        self._shared_heap: List[tuple] = []
        self._solo: List[Request] = []
        #: Settled state (see DESIGN.md §9).  ``_epoch`` counts the
        #: changes to what _can_acquire and _after_change read: every
        #: lock-table transition, every static-ceiling change on a
        #: locked oid, every waiter queued or dequeued.  ``_settled``
        #: is its value at the end of the last _after_change, and
        #: ``_inheritance_seen`` is kernel.inheritance_changes as of
        #: then: a different value means another protocol instance
        #: re-prioritised a process in between.  ``_lent`` is that
        #: pass's final contributions (tid -> priority): what the
        #: process of each transaction in ``_inheriting_txn`` should
        #: still carry.  With all of it unmoved a re-evaluation can
        #: grant nothing and re-prioritise nobody.
        self._epoch = 0
        self._settled = 0
        self._inheritance_seen = kernel.inheritance_changes
        self._lent: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # declarations (a static ceiling is read only on a locked oid)
    # ------------------------------------------------------------------
    def register(self, txn: Transaction) -> None:
        super().register(txn)
        tid = txn.tid
        priority = txn.priority
        locked = self._locked
        # Cx declares a write on everything it reads.
        both = (self._writers, self._accessors)
        for oids, indexes in ((txn.write_set, both), (
                txn.read_set, both if self.exclusive_only else both[1:])):
            for oid in oids:
                for index in indexes:
                    if oid in index:
                        index[oid][tid] = priority
                    else:
                        index[oid] = {tid: priority}
                # A read lock's entry reads the writers only.
                if oid in locked and (indexes is both
                                      or locked[oid].writers):
                    entry = self._entry_of.get(oid)
                    if entry is None or -entry[0] < priority:
                        self._refresh_entry(oid, locked[oid])
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.ceiling_raise(self.kernel.now, self, txn)

    def deregister(self, txn: Transaction) -> None:
        tid = txn.tid
        if tid in self.active:
            del self.active[tid]
        priority = txn.priority
        locked = self._locked
        accessors = self._accessors
        both = (self._writers, accessors)
        for oids, indexes in ((txn.write_set, both), (
                txn.read_set, both if self.exclusive_only else both[1:])):
            for oid in oids:
                # Every declaration is an access: none here means it
                # was never made, or withdrawn (the oid is in both sets).
                if oid not in accessors or tid not in accessors[oid]:
                    continue
                for index in indexes:
                    declarers = index[oid]
                    del declarers[tid]
                    if not declarers:
                        del index[oid]
                if oid in locked and (indexes is both
                                      or locked[oid].writers):
                    entry = self._entry_of.get(oid)
                    if entry is not None and -entry[0] == priority:
                        self._refresh_entry(oid, locked[oid])
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.ceiling_lower(self.kernel.now, self, txn)
            hooks.txn_deregister(self.kernel.now, self, txn)
        # Ceilings dropped: re-evaluate the waiters — unless nothing
        # that a re-evaluation reads moved since the last one settled
        # (the usual case: release_all just ran it, and no entry of a
        # locked object moved).
        if (self._epoch == self._settled
                and self.kernel.inheritance_changes
                == self._inheritance_seen):
            # Another agent may have overwritten a priority we lent
            # without moving the effective one (both below the base
            # priority): the kernel does not count that, and the pass
            # would write ours back.
            lent = self._lent
            inheriting_txn = self._inheriting_txn
            for tid in inheriting_txn:
                process = inheriting_txn[tid].process
                if (process.state is not _TERMINATED
                        and process.inherited_priority != lent[tid]):
                    break
            else:
                return
        self._reevaluate()

    # ------------------------------------------------------------------
    # ceilings
    # ------------------------------------------------------------------
    def write_ceiling(self, oid: int) -> Optional[float]:
        """Static write-priority ceiling (None if no active writer)."""
        writers = self._writers.get(oid)
        return max(writers.values()) if writers else None

    def absolute_ceiling(self, oid: int) -> Optional[float]:
        """Static absolute-priority ceiling (None if no active accessor)."""
        accessors = self._accessors.get(oid)
        return max(accessors.values()) if accessors else None

    def rw_ceiling(self, oid: int) -> Optional[float]:
        """Dynamic rw-priority ceiling of a *locked* object."""
        if self.locks.write_locked(oid):
            return self.absolute_ceiling(oid)
        return self.write_ceiling(oid)

    def _refresh_entry(self, oid: int, record) -> None:
        """Bring ``oid``'s barrier-index entry in line with its lock
        record (None: unlocked) and the static ceilings.

        Every call unsettles the protocol, whether or not the entry
        tuple moves: a reader joining a read lock leaves the tuple
        alone but changes whose barrier the entry is.

        Ordering parity with the historical per-request scan: that scan
        kept the *first* oid in table-iteration order whose ceiling was
        *strictly* greater than any before it — i.e. among the maximal
        ceilings, the lowest table insertion seq — which is exactly the
        head of this sort order once self-held-only entries are skipped.
        """
        self._epoch += 1
        entry = None
        if record is not None:
            index = self._accessors if record.writers else self._writers
            if oid in index:
                entry = (-max(index[oid].values()), record.seq, oid)
        stale = self._entry_of.get(oid)
        if entry == stale:
            return
        entries = self._entries
        if stale is not None:
            del entries[bisect_left(entries, stale)]
            del self._entry_of[oid]
        if entry is not None:
            insort(entries, entry)
            self._entry_of[oid] = entry

    #: Lock-table notification (see LockTable.subscribe).
    on_lock_change = _refresh_entry

    def _ceiling_barrier(self, tid: int):
        """(ceiling, oid) of the highest rw-ceiling among objects locked
        by transactions other than ``tid``; (None, None) if no such
        object or none of them has a ceiling.  Every indexed oid is
        locked, so its record is read straight from the table."""
        locked = self._locked
        for neg_ceiling, __, oid in self._entries:
            for holder in locked[oid].holders:
                if holder != tid:
                    return -neg_ceiling, oid
        return None, None

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _can_acquire(self, txn: Transaction, oid: int,
                     mode: LockMode) -> bool:
        tid = txn.tid
        barrier, __ = self._ceiling_barrier(tid)
        if barrier is not None and txn.priority <= barrier:
            return False
        # The ceiling test passed; the grant must be conflict-free.
        # A failure here is an implementation bug, never a run condition.
        if not self.locks.can_grant(oid, tid, mode):
            raise LockError(
                f"ceiling test admitted txn {txn.tid} (prio "
                f"{txn.priority}) for {mode} on {oid}, but holders "
                f"{self.locks.holders(oid)} conflict — ceiling "
                f"subsumption violated")
        return True

    # ------------------------------------------------------------------
    # wake-up index
    # ------------------------------------------------------------------
    def _enqueue(self, request: Request) -> None:
        super()._enqueue(request)
        self._epoch += 1
        txn = request.txn
        tid = txn.tid
        # The shared group's one barrier and one priority stand for a
        # member only while it holds nothing and waits at its own
        # priority; a second request of a member also goes solo.
        if (tid in self._shared or self.locks.holds_any(tid)
                or request.waiter_priority() != txn.priority):
            self._solo.append(request)
            return
        self._shared[tid] = request
        heap = self._shared_heap
        if len(heap) > 2 * len(self._shared) + 16:
            # Withdrawn low-priority members never surface: drop them
            # so the heap stays O(waiters).
            heap[:] = [(-member.txn.priority, member.seq, member)
                       for member in self._shared.values()]
            heapify(heap)
        else:
            heappush(heap, (-txn.priority, request.seq, request))

    def _dequeue(self, request: Request) -> None:
        super()._dequeue(request)
        self._epoch += 1
        tid = request.txn.tid
        if self._shared.get(tid) is request:
            del self._shared[tid]  # heap entry dies lazily
        else:
            self._solo.remove(request)

    def _refile_boosted(self) -> None:
        """Move shared-group members that no longer wait at their own
        priority to ``_solo``, for good: solo evaluation is exact for
        any waiter, the group only under the _enqueue condition."""
        boosted = [request for request in self._shared.values()
                   if request.waiter_priority() != request.txn.priority]
        if boosted:
            for request in boosted:
                del self._shared[request.txn.tid]
            self._solo.extend(boosted)
            self._solo.sort(key=by_seq)

    def _shared_top(self) -> Optional[Request]:
        """Highest-priority, then earliest, member of the shared group."""
        heap = self._shared_heap
        shared = self._shared
        while heap:
            request = heap[0][2]
            if shared.get(request.txn.tid) is request:
                return request
            heappop(heap)
        return None

    def _grant_order(self) -> List[Request]:
        # If the shared group's top fails the ceiling test against
        # their common barrier, every other member (lower priority,
        # same barrier) fails it too, so the top stands for all.
        top = self._shared_top()
        if not self._solo:  # the usual case: nothing to sort
            return [] if top is None else [top]
        candidates = self._solo if top is None else self._solo + [top]
        return sorted(candidates, key=by_priority_then_seq)

    # ------------------------------------------------------------------
    # inheritance
    # ------------------------------------------------------------------
    def blocked_by(self, tid: int,
                   kinds: int = CONFLICT | QUEUE) -> Iterable[int]:
        """``BARRIER`` adds the holder(s) of the lock with the highest
        rw-ceiling, in holder order: the transaction(s) blocking ``tid``
        in the protocol's sense, conflicting or not."""
        holders: List[int] = []
        if kinds & CONFLICT:
            holders += super().blocked_by(tid, kinds)
        if kinds & BARRIER:
            __, oid = self._ceiling_barrier(tid)
            if oid is not None:
                holders += [holder for holder in self._locked[oid].holders
                            if holder != tid]
        return holders

    def _after_change(self) -> None:
        # Same fixpoint structure as PI, but the inheritance edge goes to
        # the holder of the highest-ceiling lock rather than to direct
        # lock conflicters.  Waiters contribute in enqueue order (it
        # fixes the order holders are re-prioritised and traced in); the
        # shared group contributes once, where its earliest member
        # stands in ``waiting``, to the holders of ``_entries[0]``.
        kernel = self.kernel
        if kernel.inheritance_changes != self._inheritance_seen:
            self._refile_boosted()
        order: list = self._solo
        top = self._shared_top()
        if top is not None and self._entries:
            # Everything queued before the earliest member is solo.
            place = 0
            if order:
                shared = self._shared
                for request in self.waiting:
                    if shared.get(request.txn.tid) is request:
                        break
                    place += 1
            order = order[:place] + [None] + order[place:]
        # A boosted waiter a lock manager queued for a remote
        # transaction can lose the boost with no event here: its
        # process may end while its abort message is in flight, and
        # waiter_priority() then falls back to the base priority.  A
        # pass that read such a priority does not count as settled.
        volatile = False
        locked = self._locked
        for __ in range(len(self.waiting) + 1):
            contributions: Dict[int, float] = {}
            for request in order:
                if request is None:
                    priority = top.txn.priority
                    holders = locked[self._entries[0][2]].holders
                else:
                    priority = request.waiter_priority()
                    if (priority != request.txn.priority
                            and request.on_grant is not None):
                        volatile = True
                    holders = self.blocked_by(request.txn.tid, BARRIER)
                for tid in holders:
                    current = contributions.get(tid)
                    if current is None or current < priority:
                        contributions[tid] = priority
            if not self._apply_inheritance(contributions):
                break
        self._settled = -1 if volatile else self._epoch
        self._inheritance_seen = kernel.inheritance_changes
        self._lent = contributions
