"""Basic priority-inheritance locking (the [Sha87] strawman of §3.1).

Identical to protocol P (strict 2PL, priority queues, preemptive CPU),
plus the basic inheritance rule: "when a transaction T of a task blocks
a higher priority task, it executes at the highest priority of all the
transactions blocked by T".

The paper discusses why this alone is inadequate — blocking is bounded
but a transaction can still be blocked once per lock it needs (*chained
blocking*), and deadlocks remain possible.  The ablation benchmark
``test_ablation_inheritance`` quantifies both effects against the
ceiling protocol.
"""

from __future__ import annotations

from .twopl import TwoPhaseLockingPriority


class PriorityInheritance(TwoPhaseLockingPriority):
    """Protocol PI: 2PL + priority queues + basic priority inheritance."""

    name = "PI"

    def _after_change(self) -> None:
        # Fixpoint over inheritance chains: a holder inherits the highest
        # *effective* priority among waiters it blocks, and effective
        # priorities feed forward (T3 holding what T2 needs inherits T1's
        # priority when T1 blocks on T2).  Chains are bounded by the
        # number of waiters, so the loop terminates.
        for __ in range(len(self.waiting) + 1):
            contributions: dict = {}
            inheritors: dict = {}
            for request in self.waiting:
                waiter_priority = request.waiter_priority()
                for holder in self.locks.conflicting_holders(
                        request.oid, request.txn, request.mode):
                    tid = holder.tid
                    current = contributions.get(tid)
                    if current is None or current < waiter_priority:
                        contributions[tid] = waiter_priority
                        inheritors[tid] = holder
            if not self._apply_inheritance(contributions, inheritors):
                break
