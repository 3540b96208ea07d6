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
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator

from .errors import InvalidProcessState
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


class Spawn(SysCall):
    """Create a child process; returns the new :class:`Process`."""

    __slots__ = ("body", "name", "priority")

    def __init__(self, body: Generator, name: str, priority: float = 0.0):
        self.body = body
        self.name = name
        self.priority = priority

    def apply(self, kernel, process):
        child = kernel.spawn(self.body, self.name, self.priority)
        return Immediate(child)


class Join(SysCall):
    """Block until ``target`` terminates; returns its result value.

    If the target raised, the exception is re-raised in the joiner.
    """

    __slots__ = ("target",)

    def __init__(self, target: Process):
        self.target = target

    def apply(self, kernel, process):
        if process is self.target:
            raise InvalidProcessState("a process cannot join itself")
        if self.target.terminated:
            if self.target.exception is not None:
                raise self.target.exception
            return Immediate(self.target.result)
        self.target.joiners.append(process)
        process.blocker = _JoinBlocker(self.target)
        return BLOCKED


class _JoinBlocker:
    __slots__ = ("target",)

    def __init__(self, target: Process):
        self.target = target

    def withdraw(self, process: Process) -> None:
        if process in self.target.joiners:
            self.target.joiners.remove(process)


class Call(SysCall):
    """Run an arbitrary kernel-context function ``fn(kernel, process)``.

    The function may return ``Immediate`` or ``BLOCKED`` itself (after
    parking the process); plain return values are wrapped in Immediate.
    This is the extension point for *model and test* code that needs a
    one-off kernel-context operation.  The library's own structures
    (ports, CPUs, I/O, lock managers) do not use it: each
    defines a typed ``SysCall`` subclass, which costs no closure.
    """

    __slots__ = ("fn", "label")

    def __init__(self, fn: Callable, label: str = "call"):
        self.fn = fn
        self.label = label

    def apply(self, kernel, process):
        outcome = self.fn(kernel, process)
        if isinstance(outcome, Immediate) or outcome is BLOCKED:
            return outcome
        return Immediate(outcome)


class Now(SysCall):
    """Return the current virtual time (convenience)."""

    __slots__ = ()

    def apply(self, kernel, process):
        return Immediate(kernel.now)
