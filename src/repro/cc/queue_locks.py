"""Post-paper queue-lock protocols: MPCP and an FMLP-style FIFO lock.

The paper's protocols predate the multiprocessor real-time locking
literature; these two are the canonical follow-ons, adapted to the
repo's open-arrival transaction workload the same way protocol C
adapts Sha/Rajkumar ceilings (ceilings over the *currently active*
transactions' declared access sets):

- **MPCP** (:class:`MPCP`) — Rajkumar's multiprocessor priority
  ceiling protocol: per-resource priority-ordered queues plus *global
  ceiling inflation*: while a transaction holds a resource it executes
  at that resource's priority ceiling boosted strictly above every
  normal (base) priority in the system, so a critical section can
  never be preempted by non-critical work.  Surveyed in Brandenburg
  (arXiv:1909.09600); distributed descendants in Yang et al.
  (arXiv:2007.00706).
- **FMLP-style FIFO lock** (:class:`FMLPQueueLock`) — the long-resource
  rule of Block et al.'s flexible multiprocessor locking protocol:
  strictly FIFO resource queues (no priority reordering, so blocking
  is bounded by queue length, not priority rank) combined with
  priority inheritance from the queued jobs to the lock holder.

Both keep strict two-phase lock holding (all locks to commit), so they
drop into the existing transaction managers, sanitizer 2PL checker and
deadlock accounting unchanged.  Unlike the ceiling protocols they do
not prevent deadlock; cycles are detected and counted exactly as for
L/P/PI.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..txn.transaction import Transaction
from .twopl import TwoPhaseLocking, TwoPhaseLockingPriority


class MPCP(TwoPhaseLockingPriority):
    """MPCP: priority-ordered resource queues + ceiling inflation."""

    name = "mpcp"
    cpu_policy = "priority"
    queue_policy = "priority"

    def __init__(self, kernel, victim_policy: str = "none"):
        super().__init__(kernel, victim_policy=victim_policy)
        #: Active transactions (registered, not completed), by tid —
        #: the same shapes as PriorityCeiling's tables.
        self.active: Dict[int, Transaction] = {}
        #: oid -> {tid: priority} of the active transactions declaring
        #: any access to it; the per-resource priority ceiling is the
        #: max over the values.
        self._accessors: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    # active set maintenance (drives the per-resource ceilings)
    # ------------------------------------------------------------------
    def register(self, txn: Transaction) -> None:
        super().register(txn)
        self.active[txn.tid] = txn
        for oid in txn.access_set:
            self._accessors.setdefault(oid, {})[txn.tid] = txn.priority
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.ceiling_raise(self.kernel.now, self, txn)

    def deregister(self, txn: Transaction) -> None:
        self.active.pop(txn.tid, None)
        for oid in txn.access_set:
            declarers = self._accessors.get(oid)
            if declarers is not None:
                declarers.pop(txn.tid, None)
                if not declarers:
                    del self._accessors[oid]
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.ceiling_lower(self.kernel.now, self, txn)
        super().deregister(txn)  # ceilings dropped: re-evaluate

    # ------------------------------------------------------------------
    # ceilings
    # ------------------------------------------------------------------
    def resource_ceiling(self, oid: int) -> Optional[float]:
        """Priority ceiling of one resource: the highest base priority
        among active transactions declaring access to it."""
        declarers = self._accessors.get(oid)
        if not declarers:
            return None
        return max(declarers.values())

    def _priority_top(self) -> Optional[float]:
        best: Optional[float] = None
        for txn in self.active.values():
            if best is None or txn.priority > best:
                best = txn.priority
        return best

    def _priority_floor(self) -> Optional[float]:
        worst: Optional[float] = None
        for txn in self.active.values():
            if worst is None or txn.priority < worst:
                worst = txn.priority
        return worst

    # ------------------------------------------------------------------
    # global ceiling inflation
    # ------------------------------------------------------------------
    def _after_change(self) -> None:
        # Every lock holder is boosted to its highest held resource
        # ceiling, mapped strictly above the base-priority band:
        # boosted(R) = top + (PC(R) - floor) + 1, which preserves the
        # ceiling order between critical sections while dominating
        # every non-critical transaction.  Implemented through the
        # shared inheritance bookkeeping so effective priorities, the
        # preemptive CPU and the trace taxonomy all see it as one
        # mechanism.  No fixpoint needed: inflation depends only on
        # base priorities, never on inherited ones.
        contributions: dict = {}
        inheritors: dict = {}
        top = self._priority_top()
        floor = self._priority_floor()
        if top is not None:
            holder_map = self.locks.holder_map
            for oid in self.locks.locked_oids():
                ceiling = self.resource_ceiling(oid)
                if ceiling is None:
                    continue
                boosted = top + (ceiling - floor) + 1.0
                for holder in holder_map(oid):
                    tid = holder.tid
                    current = contributions.get(tid)
                    if current is None or current < boosted:
                        contributions[tid] = boosted
                        inheritors[tid] = holder
        self._apply_inheritance(contributions, inheritors)


class FMLPQueueLock(TwoPhaseLocking):
    """FMLP-style lock: FIFO resource queues + priority inheritance."""

    name = "fmlp"
    #: FIFO applies to the *lock* queues only; the CPU stays
    #: preemptive-priority, which is what makes inheritance matter.
    cpu_policy = "priority"
    queue_policy = "fifo"

    def __init__(self, kernel, victim_policy: str = "none"):
        super().__init__(kernel, victim_policy=victim_policy)

    # The holder at the head of a contended FIFO queue inherits the
    # highest effective priority queued behind it, so a middle-priority
    # transaction cannot preempt the holder while higher-priority work
    # waits: protocol PI's blocked-by relation, over FIFO queues.
    _after_change = TwoPhaseLocking._inherit_from_waiters
