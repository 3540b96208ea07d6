"""Strict two-phase locking: protocols L (no priority) and P (priority).

Both follow strict 2PL — all locks are held until commit or abort.  The
difference is purely in *ordering*:

- **protocol L** (:class:`TwoPhaseLocking`): FCFS lock queues and a
  non-preemptive FCFS CPU — the conventional database manager the paper
  uses as the bottom baseline ("they do not schedule their transactions
  to meet response time requirements");
- **protocol P** (:class:`TwoPhaseLockingPriority`): priority-ordered
  lock queues and a preemptive-priority CPU, but *no* priority
  inheritance and *no* ceiling — the "two-phase locking protocol with
  priority mode" of Figure 2/3, which still suffers priority inversion
  and deadlock.

Deadlocks are possible in both; they are detected continuously (at block
time) via the waits-for graph and resolved by aborting a victim, which
releases its locks and restarts from scratch with its original deadline.

Both the wake-up and the deadlock search do work proportional to what
changed (DESIGN.md §9): a waiter's admissibility depends on its own
object's lock record and queue only, so a re-evaluation looks at the
waiters of objects a holder or a waiter *left* since the last one; and
the search builds waits-for edges only for the transactions it reaches
from the requester.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..db.locks import LockMode
from ..txn.transaction import DeadlockAbort, Transaction
from .base import (CONFLICT, QUEUE, ConcurrencyControl, Request,
                   by_priority_then_seq, by_seq)
from .deadlock import VICTIM_POLICIES, choose_victim, find_cycle_through


class TwoPhaseLocking(ConcurrencyControl):
    """Protocol L: strict 2PL, FCFS queues, FCFS CPU."""

    name = "L"
    cpu_policy = "fifo"
    queue_policy = "fifo"

    def __init__(self, kernel, victim_policy: str = "none"):
        super().__init__(kernel)
        if victim_policy not in VICTIM_POLICIES:
            raise ValueError(f"unknown victim policy {victim_policy!r}; "
                             f"expected one of {VICTIM_POLICIES}")
        self.victim_policy = victim_policy
        #: Objects whose waiters may have become admissible since the
        #: last completed re-evaluation: those a holder left (journaled
        #: by the lock table) or a waiter left (``_dequeue``).  A grant
        #: or an enqueue can only take admissibility away, so neither
        #: marks anything.  Used as an ordered set.
        self._dirty: Dict[int, None] = {}
        self.locks.freed = self._dirty

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _can_acquire(self, txn: Transaction, oid: int,
                     mode: LockMode) -> bool:
        if not self.locks.can_grant(oid, txn.tid, mode):
            return False
        return not self._queue_blocks(txn, oid)

    def _queue_blocks(self, txn: Transaction, oid: int) -> bool:
        """Fairness: a request may not jump waiters 'ahead' of it on the
        same object.  Being ahead depends on the queue policy.

        Only the object's own queue (the per-oid index) is consulted —
        waiters on other objects can never be 'ahead'."""
        queue = self._waiting_by_oid.get(oid)
        if not queue:
            return False
        own = self._own_request(txn, oid)
        for request in queue:
            if request.txn is txn:
                continue
            if self._ahead_of(request, own, txn):
                return True
        return False

    def _own_request(self, txn: Transaction,
                     oid: int) -> Optional[Request]:
        for request in self._waiting_by_tid.get(txn.tid, ()):
            if request.oid == oid:
                return request
        return None

    def _ahead_of(self, other: Request, own: Optional[Request],
                  txn: Transaction) -> bool:
        """Is ``other`` ahead of ``txn``'s request (``own`` when already
        queued, a hypothetical brand-new request when own is None)?

        FIFO: everything already queued is ahead of a newcomer.
        Priority: a newcomer ranks by its priority (losing ties to
        queued requests), so an urgent request genuinely jumps the line.
        """
        if self.queue_policy == "fifo":
            return own is None or other.seq < own.seq
        other_key = (other.txn.priority, -other.seq)
        own_key = ((own.txn.priority, -own.seq) if own is not None
                   else (txn.priority, float("-inf")))
        return other_key > own_key

    # ------------------------------------------------------------------
    # wakeup order
    # ------------------------------------------------------------------
    def _grant_order(self) -> List[Request]:
        """The waiters of dirty objects, in the order the whole wait set
        would be reconsidered: every waiter that can be admissible is
        among them, so the first admissible one is the same."""
        by_oid = self._waiting_by_oid
        candidates = [request for oid in self._dirty if oid in by_oid
                      for request in by_oid[oid]]
        candidates.sort(key=by_seq if self.queue_policy == "fifo"
                        else by_priority_then_seq)
        return candidates

    def _reevaluate(self) -> None:
        if not self._dirty:
            # Nothing left since the last pass ended with no admissible
            # waiter: there is still none.
            self._after_change()
            return
        super()._reevaluate()
        # The last pass found nothing grantable among the dirty
        # objects' waiters, and nothing else could have changed.
        self._dirty.clear()

    def _dequeue(self, request: Request) -> None:
        super()._dequeue(request)
        self._dirty[request.oid] = None

    # ------------------------------------------------------------------
    # deadlock handling
    # ------------------------------------------------------------------
    def _on_block(self, request: Request) -> None:
        cycle = find_cycle_through(request.txn.tid, self.blocked_by)
        if cycle is None:
            return
        self.stats.deadlocks += 1
        if self.victim_policy == "none":
            # The paper's model: no deadlock resolution exists; the
            # cycle persists until one member's hard deadline expires
            # and its abort frees the locks.  The cycle is still
            # *counted* so Figure-3 analysis can report deadlock rates.
            return
        victim = self._select_victim(cycle, request)
        if victim is request.txn:
            # Abort the requester in-line: undo the enqueue, then raise;
            # the kernel delivers the interrupt into its generator.
            self._dequeue(request)
            request.process.blocker = None
            raise DeadlockAbort(f"deadlock cycle {cycle}")
        self.kernel.interrupt(victim.process,
                              DeadlockAbort(f"deadlock cycle {cycle}"))

    def _select_victim(self, cycle: List[int],
                       request: Request) -> Transaction:
        """Apply the victim policy over members that can actually break
        the cycle.

        A member that holds no locks sits on the cycle only through
        queue-fairness edges; aborting it removes nothing the others
        wait on, the residual resource cycle persists, and — when that
        member is the restarting requester — detection re-fires in zero
        virtual time, forever.  Victims are therefore chosen among the
        lock-holding members; the requester is only eligible while it
        holds locks itself.
        """
        holds_any = self.locks.holds_any
        holders = [tid for tid in cycle if holds_any(tid)]
        candidates = [self.active[tid] for tid in holders or cycle]
        if (self.victim_policy == "requester"
                and request.txn not in candidates):
            # The requester cannot break the cycle: fall back to the
            # youngest lock-holding member.
            return choose_victim(candidates, "youngest", request.txn)
        return choose_victim(candidates, self.victim_policy, request.txn)

    def blocked_by(self, tid: int,
                   kinds: int = CONFLICT | QUEUE) -> Iterable[int]:
        """With ``QUEUE``, a set: the detector's successors.  Its
        iteration order, hence the cycle and the victim, follows the
        insertion sequence the whole-graph oracle also uses: conflicting
        holders of each of ``tid``'s requests, then the waiters ahead of
        each, requests in enqueue order.  A set of tids iterates as the
        set of transactions it replaced did (``hash(txn)`` is
        ``txn.tid``).  Else the base class's list."""
        if not kinds & QUEUE:
            return super().blocked_by(tid, kinds)
        targets: Set[int] = set()
        requests = self._waiting_by_tid.get(tid, ())
        if kinds & CONFLICT:
            conflicting_holders = self.locks.conflicting_holders
            for request in requests:
                targets.update(
                    conflicting_holders(request.oid, tid, request.mode))
        for request in requests:
            txn = request.txn
            for other in self._waiting_by_oid[request.oid]:
                if (other.txn is not txn
                        and self._ahead_of(other, request, txn)):
                    targets.add(other.txn.tid)
        return targets

    def _inherit_from_waiters(self) -> None:
        """Priority inheritance along the blocked-by relation — the
        ``_after_change`` of the protocols that inherit (PI over
        priority queues, FMLP over FIFO ones; Brandenburg,
        arXiv:1909.09600, defines both by this one relation).

        A fixpoint over inheritance chains: a holder inherits the
        highest *effective* priority among the waiters it blocks, and
        effective priorities feed forward (T3 holding what T2 needs
        inherits T1's priority when T1 blocks on T2).  Chains are
        bounded by the number of waiters, so the loop terminates."""
        for __ in range(len(self.waiting) + 1):
            contributions: dict = {}
            for request in self.waiting:
                waiter_priority = request.waiter_priority()
                for tid in self.blocked_by(request.txn.tid, CONFLICT):
                    current = contributions.get(tid)
                    if current is None or current < waiter_priority:
                        contributions[tid] = waiter_priority
            if not self._apply_inheritance(contributions):
                break


class TwoPhaseLockingPriority(TwoPhaseLocking):
    """Protocol P: strict 2PL with priority queues and preemptive CPU."""

    name = "P"
    cpu_policy = "priority"
    queue_policy = "priority"

    def __init__(self, kernel, victim_policy: str = "none"):
        super().__init__(kernel, victim_policy=victim_policy)
