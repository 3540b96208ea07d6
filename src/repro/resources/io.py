"""I/O subsystem models.

The paper's single-site study assumes *parallel I/O processing* ("the
concurrency is fully achieved with an assumption of parallel I/O
processing"), i.e. I/O requests never queue behind each other; and the
distributed study uses a memory-resident database with *no* I/O cost.
:class:`ParallelIO` implements the former (an infinite-server delay
stage), and ``io_per_object = 0`` gives the latter.

:class:`DiskArray` is a bounded alternative — ``k`` identical servers
fed by one FIFO or priority queue — kept for sensitivity studies on the
parallel-I/O assumption (it is not needed to reproduce any figure).
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict

from ..kernel.errors import SchedulingError
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from ..kernel.scheduler import WaitQueue
from ..kernel.syscalls import BLOCKED, DONE, SysCall


class ParallelIO:
    """Infinite-server I/O: every request proceeds immediately."""

    def __init__(self, kernel: Kernel, name: str = "io"):
        self.kernel = kernel
        self.name = name
        self.requests = 0

    def use(self, amount: float) -> "IoBurst":
        """Syscall: perform ``amount`` time units of I/O (pure delay)."""
        if amount < 0:
            raise ValueError(f"I/O burst must be >= 0, got {amount}")
        call = IoBurst()
        call.meter = self
        call.duration = amount
        return call

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelIO({self.name!r}, requests={self.requests})"


class IoBurst(SysCall):
    """One parallel-I/O request, counted on its ParallelIO (the
    ``meter``); build via :meth:`ParallelIO.use`."""

    __slots__ = ("meter", "duration")
    pure_delay = True

    def apply(self, kernel: Kernel, process: Process):
        self.meter.requests += 1
        duration = self.duration
        if duration == 0:
            return DONE
        # A pure delay, like the Delay syscall: ``duration`` was checked
        # non-negative at construction, and the wake-up event is its
        # own blocker (withdraw == cancel).
        process.blocker = kernel.events.schedule(
            kernel.now + duration, partial(kernel.wake, process))
        return BLOCKED

    @property
    def label(self) -> str:
        return f"io({self.meter.name})"


class DiskArray:
    """``k`` identical non-preemptive servers behind one queue."""

    def __init__(self, kernel: Kernel, servers: int = 1,
                 name: str = "disks", policy: str = "fifo"):
        if servers < 1:
            raise ValueError(f"need at least one server, got {servers}")
        self.kernel = kernel
        self.name = name
        self.servers = servers
        self._queue: WaitQueue = WaitQueue(policy, kernel)
        #: process -> completion event for in-service requests
        self._in_service: Dict[Process, object] = {}
        self._seq = itertools.count()
        self.requests = 0

    def use(self, amount: float) -> "DiskRequest":
        """Syscall: perform ``amount`` units of disk service, queueing
        behind other requests when all servers are busy."""
        if amount < 0:
            raise ValueError(f"disk burst must be >= 0, got {amount}")
        call = DiskRequest()
        call.disks = self
        call.amount = amount
        return call

    def _start(self, process: Process, amount: float) -> None:
        self._in_service[process] = self.kernel.after(
            amount, partial(self._finish, process))

    def _finish(self, process: Process) -> None:
        del self._in_service[process]
        self.kernel.wake(process, self._dispatch)

    def _dispatch(self) -> None:
        while self._queue and len(self._in_service) < self.servers:
            process, amount = self._queue.pop()
            self._start(process, amount)

    def _withdraw(self, process: Process) -> None:
        event = self._in_service.pop(process, None)
        if event is not None:
            event.cancel()
            self._dispatch()
            return
        if not self._queue.remove(process):
            raise SchedulingError(
                f"withdraw of unknown process {process.name} on {self.name}")

    @property
    def busy(self) -> int:
        return len(self._in_service)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DiskArray({self.name!r}, servers={self.servers}, "
                f"busy={self.busy}, queued={self.queued})")


class DiskRequest(SysCall):
    """One disk-service request; build via :meth:`DiskArray.use`."""

    __slots__ = ("disks", "amount")

    def apply(self, kernel: Kernel, process: Process):
        disks = self.disks
        amount = self.amount
        disks.requests += 1
        if amount == 0 and len(disks._in_service) < disks.servers:
            return DONE
        process.blocker = _DiskBlocker(disks)
        if len(disks._in_service) < disks.servers:
            disks._start(process, amount)
        else:
            disks._queue.push(process, amount)
        return BLOCKED

    @property
    def label(self) -> str:
        return f"disk({self.disks.name})"


class _DiskBlocker:
    __slots__ = ("disks",)

    def __init__(self, disks: DiskArray):
        self.disks = disks

    def withdraw(self, process: Process) -> None:
        self.disks._withdraw(process)
