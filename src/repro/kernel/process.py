"""Processes: generator coroutines scheduled by the kernel.

A process body is a generator that ``yield``\\ s system-call objects (see
:mod:`repro.kernel.syscalls`).  The kernel resumes the generator with the
syscall's result, or throws a :class:`~repro.kernel.errors.ProcessInterrupt`
into it when another process interrupts it (deadline aborts use this).

Priorities
----------
Higher numeric value means higher priority, everywhere in this library.
``effective_priority`` is the maximum of the process's base priority and
its *inherited* priority — the mechanism behind priority inheritance in
the locking protocols.  Resources that order waiters by priority always
consult ``effective_priority`` at dequeue time, so inheritance takes
effect immediately without re-queueing.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from .errors import InvalidProcessState


class ProcessState(enum.Enum):
    """Lifecycle states, matching the StarLite create/ready/block/terminate
    process-control vocabulary from the paper."""

    CREATED = "created"
    READY = "ready"        # resume event pending in the event queue
    RUNNING = "running"    # generator currently being stepped
    BLOCKED = "blocked"    # parked on a blocker (delay, lock, port, CPU...)
    TERMINATED = "terminated"


class Process:
    """A kernel-scheduled coroutine.

    Do not instantiate directly; use :meth:`Kernel.spawn`, which
    numbers its processes from 1 (``pid`` 0: never spawned).
    """

    __slots__ = ("pid", "name", "generator", "base_priority",
                 "inherited_priority", "state", "blocker",
                 "pending_resume", "joiners", "result", "exception",
                 "payload")

    def __init__(self, generator: Generator, name: str,
                 priority: float = 0.0, pid: int = 0):
        self.pid = pid
        self.name = name
        self.generator = generator
        self.base_priority = float(priority)
        self.inherited_priority: Optional[float] = None
        self.state = ProcessState.CREATED
        #: The structure this process is blocked on; must expose
        #: ``withdraw(process)`` for interrupt cleanup.
        self.blocker: Optional[Any] = None
        #: Pending resume Event, if the process is READY.
        self.pending_resume: Optional[Any] = None
        #: Processes waiting (via Join) for this one to terminate.
        self.joiners: list = []
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        #: Arbitrary model payload (e.g. the Transaction this TM runs).
        self.payload: Any = None

    @property
    def effective_priority(self) -> float:
        """Base priority raised by any inherited priority."""
        if self.inherited_priority is None:
            return self.base_priority
        return max(self.base_priority, self.inherited_priority)

    @property
    def terminated(self) -> bool:
        return self.state is ProcessState.TERMINATED

    def inherit(self, priority: Optional[float]) -> bool:
        """Set (or clear, with None) the inherited priority.

        Returns True if the effective priority changed; the caller is
        responsible for notifying priority-sensitive resources (the
        kernel's ``set_inherited_priority`` does this).
        """
        before = self.effective_priority
        self.inherited_priority = priority
        return self.effective_priority != before

    def check_not_terminated(self) -> None:
        if self.state is ProcessState.TERMINATED:
            raise InvalidProcessState(
                f"process {self.name} (pid {self.pid}) already terminated")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Process(pid={self.pid}, name={self.name!r}, "
                f"state={self.state.value}, prio={self.effective_priority})")
