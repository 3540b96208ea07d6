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
ignored, every lock is exclusive and both static ceilings collapse to
the absolute ceiling.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional

from ..db.locks import LockError, LockMode
from ..kernel.process import ProcessState
from ..txn.transaction import Transaction
from .base import (ConcurrencyControl, Request, by_priority_then_seq,
                   by_seq)

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
        #: Active transactions (started, not completed), by tid.  The
        #: protocol's tables are keyed by tid throughout: an int key
        #: hashes without a Python-level call.
        self.active: Dict[int, Transaction] = {}
        #: oid -> {tid: priority} of the active transactions declaring
        #: a write on it, and the static write-priority ceiling that
        #: follows from them.
        self._writers: Dict[int, Dict[int, float]] = {}
        self._write_ceilings: Dict[int, float] = {}
        #: oid -> {tid: priority} of the active transactions declaring
        #: any access to it, and the static absolute-priority ceiling.
        self._accessors: Dict[int, Dict[int, float]] = {}
        self._absolute_ceilings: Dict[int, float] = {}
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
    # active set maintenance (drives the static ceilings)
    # ------------------------------------------------------------------
    def _declarations(self, txn: Transaction):
        write_set = (txn.access_set if self.exclusive_only
                     else txn.write_set)
        return ((self._writers, self._write_ceilings, write_set),
                (self._accessors, self._absolute_ceilings,
                 txn.access_set))

    def register(self, txn: Transaction) -> None:
        super().register(txn)
        tid = txn.tid
        self.active[tid] = txn
        priority = txn.priority
        locked = self._locked
        for index, ceilings, oids in self._declarations(txn):
            for oid in oids:
                if oid in index:
                    index[oid][tid] = priority
                else:
                    index[oid] = {tid: priority}
                ceiling = ceilings.get(oid)
                if ceiling is None or ceiling < priority:
                    ceilings[oid] = priority
                    if oid in locked:
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
        for index, ceilings, oids in self._declarations(txn):
            for oid in oids:
                declarers = index.get(oid)
                if declarers is None or tid not in declarers:
                    continue
                del declarers[tid]
                if not declarers:
                    del index[oid]
                    del ceilings[oid]
                elif ceilings[oid] == priority:
                    ceilings[oid] = max(declarers.values())
                else:
                    continue
                if oid in locked:
                    self._refresh_entry(oid, locked[oid])
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.ceiling_lower(self.kernel.now, self, txn)
            hooks.txn_deregister(self.kernel.now, self, txn)
        # Ceilings dropped: re-evaluate the waiters — unless nothing
        # that a re-evaluation reads moved since the last one settled
        # (the usual case: release_all just ran it, and the ceilings
        # that dropped were on unlocked objects).
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
        return self._write_ceilings.get(oid)

    def absolute_ceiling(self, oid: int) -> Optional[float]:
        """Static absolute-priority ceiling (None if no active accessor)."""
        return self._absolute_ceilings.get(oid)

    def rw_ceiling(self, oid: int) -> Optional[float]:
        """Dynamic rw-priority ceiling of a *locked* object."""
        if self.locks.write_locked(oid):
            return self._absolute_ceilings.get(oid)
        return self._write_ceilings.get(oid)

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
            ceiling = (self._absolute_ceilings if record.writers
                       else self._write_ceilings).get(oid)
            if ceiling is not None:
                entry = (-ceiling, record.seq, oid)
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

    def _ceiling_barrier(self, txn: Transaction):
        """(ceiling, oid) of the highest rw-ceiling among objects locked
        by transactions other than ``txn``; (None, None) if no such
        object or none of them has a ceiling."""
        holder_map = self.locks.holder_map
        for neg_ceiling, __, oid in self._entries:
            for holder in holder_map(oid):
                if holder is not txn:
                    return -neg_ceiling, oid
        return None, None

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def acquire(self, txn: Transaction, oid: int, mode: LockMode):
        if txn.tid not in self.active:
            raise LockError(f"transaction {txn.tid} must be registered "
                            f"before acquiring locks under {self.name}")
        if self.exclusive_only:
            mode = LockMode.WRITE
        return super().acquire(txn, oid, mode)

    def _can_acquire(self, txn: Transaction, oid: int,
                     mode: LockMode) -> bool:
        barrier, __ = self._ceiling_barrier(txn)
        if barrier is not None and txn.priority <= barrier:
            return False
        # The ceiling test passed; the grant must be conflict-free.
        # A failure here is an implementation bug, never a run condition.
        if not self.locks.can_grant(oid, txn, mode):
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
        if (tid in self._shared or self.locks.holds_any(txn)
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
        candidates = self._solo if top is None else self._solo + [top]
        return sorted(candidates, key=by_priority_then_seq)

    # ------------------------------------------------------------------
    # inheritance
    # ------------------------------------------------------------------
    def ceiling_blockers(self, request: Request) -> List[Transaction]:
        """Holder(s) of the lock with the highest rw-ceiling — the
        transaction(s) 'blocking' this request in the protocol's sense
        (a ceiling block has no direct lock conflict to name them)."""
        __, oid = self._ceiling_barrier(request.txn)
        if oid is None:
            return []
        return [holder for holder in self.locks.holder_map(oid)
                if holder is not request.txn]

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
            shared = self._shared
            place = 0
            for request in self.waiting:
                if shared.get(request.txn.tid) is request:
                    break
                place += 1
            order = order[:place] + [None] + order[place:]
        # A boosted waiter queued by acquire_async can lose the boost
        # with no event here: its process may end while its abort
        # message is in flight, and waiter_priority() then falls back
        # to the base priority.  A pass that read such a priority does
        # not count as settled.
        volatile = False
        for __ in range(len(self.waiting) + 1):
            contributions: Dict[int, float] = {}
            inheritors: Dict[int, Transaction] = {}
            for request in order:
                if request is None:
                    priority = top.txn.priority
                    holders = self.locks.holder_map(self._entries[0][2])
                else:
                    priority = request.waiter_priority()
                    if (priority != request.txn.priority
                            and request.on_grant is not None):
                        volatile = True
                    holders = self.ceiling_blockers(request)
                for holder in holders:
                    tid = holder.tid
                    current = contributions.get(tid)
                    if current is None or current < priority:
                        contributions[tid] = priority
                        inheritors[tid] = holder
            if not self._apply_inheritance(contributions, inheritors):
                break
        self._settled = -1 if volatile else self._epoch
        self._inheritance_seen = kernel.inheritance_changes
        self._lent = contributions
