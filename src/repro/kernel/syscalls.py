"""System calls: the objects process coroutines yield to the kernel.

Each syscall implements ``apply(kernel, process)`` and returns either
``Immediate(value)`` — the process continues in the same instant with
``value`` as the result of the ``yield`` — or the ``BLOCKED`` sentinel,
in which case the process has been parked on some structure and will be
resumed later via ``kernel.ready`` (or ``kernel.wake``, from the
completion callback of a timed structure).

Model code normally uses the convenience wrappers on the structures
themselves (``port.receive()``, ``cpu.use(t)``, ``disk.use(t)``,
``cc.acquire(...)``).  Each returns a small typed :class:`SysCall`
subclass defined next to its structure, whose ``apply`` *is* the
operation: one object access costs one allocation and one frame here,
not a closure, a wrapper and a result box.  A syscall only *describes*
a request — ``apply`` never mutates it — so a process may build one
once and yield it many times.  The typed classes define no
``__init__``: the wrapper validates its arguments and stores the
slots itself, so building a request runs the wrapper's frame only.

A syscall may carry a *follow-on*, the request its process makes next
(``cpu.use(a, then=io.use(b))``, ``cc.acquire(..., then=burst)``): the
structure starts it itself when the first part is done — a lock grant
at once, a burst's completion through :meth:`Kernel.wake` — and the
process resumes once, when the follow-on completes.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from .process import Process


class Immediate:
    """Result wrapper: the syscall completed without blocking."""

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value


#: The shared value-less completion: a syscall that finished without
#: blocking and has nothing to hand back returns this instead of
#: boxing a fresh ``Immediate(None)``.
DONE = Immediate(None)


class _Blocked:
    """Sentinel: the process is parked; the kernel must not resume it."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "BLOCKED"


BLOCKED = _Blocked()


class SysCall:
    """Base class for yieldable system calls."""

    __slots__ = ()

    #: True on a *pure delay* (ParallelIO's request): ``apply`` only
    #: counts the call on its ``meter`` and parks the process on a
    #: wake event ``duration`` from now.  :meth:`Kernel.wake` starts
    #: one chained as a follow-on in place, without the ``apply`` frame.
    pure_delay = False

    def apply(self, kernel: "Kernel", process: Process):  # noqa: F821
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Diagnostic tag, formatted on demand — never on the hot path
        (typed syscalls override it to name their structure)."""
        return type(self).__name__.lower()


class Delay(SysCall):
    """Suspend the process for ``duration`` virtual time units.

    This models *pure elapsed time* that consumes no shared resource —
    the paper's parallel-I/O assumption, think time, and network latency
    all use delays.  For time spent on a contended resource, use the
    resource's ``use`` syscall instead.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"delay must be non-negative, got {duration}")
        self.duration = duration

    def apply(self, kernel, process):
        duration = self.duration
        if duration == 0:
            return DONE
        # The wake-up event is its own blocker (withdraw == cancel).
        process.blocker = kernel.events.schedule(
            kernel.now + duration, partial(kernel.wake, process))
        return BLOCKED
