"""Priority assignment and deadline formulas.

The paper's experiments assign each transaction a deadline "in proportion
to its size and system workload", and "the transaction with the earliest
deadline is assigned the highest priority" — i.e. earliest-deadline-first
priorities fixed at arrival, which is what the priority ceiling protocol
(premised on a fixed priority per transaction) requires.  The workload
enters only through the transaction's size: the allowance is not
stretched by how many transactions are in the system.

Priorities here are floats, larger = more urgent, consistent with the
kernel.  EDF maps deadline d to priority -d.
"""

from __future__ import annotations


def edf_priority(deadline: float) -> float:
    """Earliest deadline ⇒ highest priority."""
    return -deadline


def proportional_deadline(arrival: float, size: int,
                          per_object_time: float,
                          slack_factor: float) -> float:
    """Deadline proportional to transaction size.

    ``per_object_time`` is the no-contention service time per data object
    (CPU + I/O); ``slack_factor`` scales it into a deadline allowance.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if slack_factor <= 0:
        raise ValueError(f"slack_factor must be positive, got {slack_factor}")
    return arrival + slack_factor * size * per_object_time
