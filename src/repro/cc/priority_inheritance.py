"""Basic priority-inheritance locking (the [Sha87] strawman of §3.1).

Identical to protocol P (strict 2PL, priority queues, preemptive CPU),
plus the basic inheritance rule: "when a transaction T of a task blocks
a higher priority task, it executes at the highest priority of all the
transactions blocked by T".

The paper discusses why this alone is inadequate — blocking is bounded
but a transaction can still be blocked once per lock it needs (*chained
blocking*), and deadlocks remain possible.  The ``a2`` ablation
(``repro a2``: P / PI / C) quantifies both effects against the ceiling
protocol.
"""

from __future__ import annotations

from .twopl import TwoPhaseLockingPriority


class PriorityInheritance(TwoPhaseLockingPriority):
    """Protocol PI: 2PL + priority queues + basic priority inheritance."""

    name = "PI"

    _after_change = TwoPhaseLockingPriority._inherit_from_waiters
