"""Exception hierarchy for the concurrent kernel.

The kernel mirrors the StarLite concurrent-programming kernel the paper's
prototyping environment is built on: processes can be created, readied,
blocked, interrupted, and terminated.  All kernel-level failures derive from
:class:`KernelError` so callers can distinguish simulation-infrastructure
faults from model-level conditions (which use :class:`ProcessInterrupt`
subclasses delivered *into* process coroutines).
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for kernel infrastructure errors."""


class SimulationOver(KernelError):
    """Raised when an operation requires a running simulation but the
    event queue is exhausted or the horizon has been reached."""


class InvalidProcessState(KernelError):
    """An operation was applied to a process in an incompatible state
    (e.g. resuming a terminated process)."""


class SchedulingError(KernelError):
    """The scheduler or a resource reached an inconsistent state."""


class ProcessInterrupt(Exception):
    """Delivered *into* a process coroutine by :meth:`Kernel.interrupt`.

    Model code subclasses this to signal conditions such as deadline
    expiry.  ``cause`` carries an arbitrary payload describing why the
    process was interrupted.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(cause={self.cause!r})"


class Timeout(ProcessInterrupt):
    """Raised inside a process when a receive with a timeout expires
    before a message arrives."""
