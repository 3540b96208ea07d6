"""Counting semaphores with FIFO or priority wakeup.

The paper's Message Server blocks senders "on a private semaphore until
the message is retrieved" — these semaphores provide that primitive, plus
the general mutual-exclusion building block used by tests and examples.

``signal`` never blocks and is a plain method; ``wait`` returns a syscall
to be yielded from process code:

    sem = Semaphore(kernel, initial=1)
    ...
    yield sem.wait()
    # critical section
    sem.signal()
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .errors import Timeout
from .kernel import Kernel
from .process import Process
from .scheduler import WaitQueue
from .syscalls import BLOCKED, DONE, SysCall


class Semaphore:
    """Counting semaphore owned by a kernel."""

    def __init__(self, kernel: Kernel, initial: int = 0,
                 policy: str = "fifo", name: str = "semaphore"):
        if initial < 0:
            raise ValueError(f"initial count must be >= 0, got {initial}")
        self.kernel = kernel
        self.count = initial
        self.name = name
        self._waiters: WaitQueue = WaitQueue(policy, kernel)

    def wait(self, timeout: Optional[float] = None) -> "SemaphoreWait":
        """Syscall: P operation.  Decrements the count or blocks.

        With ``timeout``, raises :class:`Timeout` inside the waiting
        process if no signal arrives within ``timeout`` time units.
        """
        if timeout is not None and timeout < 0:
            raise ValueError(f"wait timeout must be >= 0, got {timeout}")
        call = SemaphoreWait()
        call.semaphore = self
        call.timeout = timeout
        return call

    def signal(self) -> None:
        """V operation: wake one waiter or increment the count."""
        if self._waiters:
            process, blocker = self._waiters.pop()
            blocker.clear_timer()
            self.kernel.ready(process)
        else:
            self.count += 1

    def _expire(self, process: Process) -> None:
        """Timeout fired: withdraw the waiter and raise Timeout in it."""
        if process in self._waiters:
            self.kernel.interrupt(process, Timeout(self.name))

    @property
    def waiting(self) -> int:
        """Number of processes currently blocked on this semaphore."""
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Semaphore({self.name!r}, count={self.count}, "
                f"waiting={self.waiting})")


class SemaphoreWait(SysCall):
    """P operation on a semaphore; build via :meth:`Semaphore.wait`."""

    __slots__ = ("semaphore", "timeout")

    def apply(self, kernel: Kernel, process: Process):
        semaphore = self.semaphore
        if semaphore.count > 0:
            semaphore.count -= 1
            return DONE
        blocker = _SemaphoreBlocker(semaphore)
        semaphore._waiters.push(process, blocker)
        if self.timeout is not None:
            blocker.timer = kernel.after(
                self.timeout, partial(semaphore._expire, process))
        process.blocker = blocker
        return BLOCKED

    @property
    def label(self) -> str:
        return f"wait({self.semaphore.name})"


class _SemaphoreBlocker:
    """Per-wait bookkeeping: queue membership plus the timeout timer."""

    __slots__ = ("semaphore", "timer")

    def __init__(self, semaphore: Semaphore):
        self.semaphore = semaphore
        self.timer = None

    def clear_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def withdraw(self, process: Process) -> None:
        """Interrupt cleanup: leave the wait queue, cancel the timer."""
        self.semaphore._waiters.remove(process)
        self.clear_timer()
