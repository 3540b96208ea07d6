"""Message ports: intra-site inter-process communication.

The prototyping environment's server processes "communicate among
themselves through ports"; within a site, processes "send and receive
messages directly through their associated ports" without touching the
Message Server.  A send (:meth:`Port.send`) never blocks: the message
goes to a waiting receiver or is buffered.

Receives may carry a timeout (the paper's site-failure time-out
mechanism), delivered as a :class:`~repro.kernel.errors.Timeout`.

Every port is FIFO and unbounded: buffered messages and parked
receivers are each served in arrival order, so the receivers sit in a
plain deque of ``(process, blocker)`` pairs rather than a
:class:`~repro.kernel.scheduler.WaitQueue`.  Every inter-site message
crosses two ports (the network into the Message Server's inbox, the
Message Server into the service port), so a delivery to a receiver
parked without a timeout calls nothing but :meth:`Kernel.ready`.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Optional, Tuple

from .errors import Timeout
from .kernel import Kernel
from .process import Process
from .syscalls import BLOCKED, Immediate, SysCall


class Port:
    """A named FIFO mailbox with blocking receive."""

    def __init__(self, kernel: Kernel, name: str = "port"):
        self.kernel = kernel
        self.name = name
        self._buffer: Deque[Any] = deque()
        #: Parked receivers, in arrival order.
        self._receivers: Deque[Tuple[Process, _ReceiverBlocker]] = deque()

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, message: Any) -> None:
        """Asynchronous send: deliver to a waiting receiver or buffer."""
        if self._receivers:
            receiver, blocker = self._receivers.popleft()
            if blocker.timer is not None:
                blocker.timer.cancel()
            self.kernel.ready(receiver, value=message)
        else:
            self._buffer.append(message)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def receive(self, timeout: Optional[float] = None) -> "Receive":
        """Syscall: return the next message, blocking if none is queued.

        With ``timeout``, a :class:`Timeout` is raised inside the
        receiving process if nothing arrives in time.
        """
        if timeout is not None and timeout < 0:
            raise ValueError(
                f"receive timeout must be >= 0, got {timeout}")
        call = Receive()
        call.port = self
        call.timeout = timeout
        return call

    def drain(self) -> list:
        """Remove and return every buffered (undelivered) message.

        Crash modelling hook: a failed site's inbox contents are lost
        with its volatile memory.  Waiting receivers are untouched —
        only queued data vanishes.
        """
        drained = list(self._buffer)
        self._buffer.clear()
        return drained

    @property
    def queued(self) -> int:
        """Number of buffered (undelivered) messages."""
        return len(self._buffer)

    @property
    def waiting_receivers(self) -> int:
        return len(self._receivers)

    def _expire(self, process: Process) -> None:
        for parked, blocker in self._receivers:
            if parked is process:
                # This timer is the event being dispatched: it left the
                # queue, so the withdraw must not cancel it.
                blocker.timer = None
                self.kernel.interrupt(process, Timeout(self.name))
                return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Port({self.name!r}, queued={self.queued}, "
                f"receivers={self.waiting_receivers})")


class Receive(SysCall):
    """Blocking receive on a port; build via :meth:`Port.receive`."""

    __slots__ = ("port", "timeout")

    def apply(self, kernel: Kernel, process: Process):
        port = self.port
        if port._buffer:
            return Immediate(port._buffer.popleft())
        # Slot stores, no __init__: a class that defines neither
        # __new__ nor __init__ instantiates without a Python frame.
        blocker = _ReceiverBlocker()
        blocker.port = port
        blocker.timer = None
        port._receivers.append((process, blocker))
        if self.timeout is not None:
            blocker.timer = kernel.after(
                self.timeout, partial(port._expire, process))
        process.blocker = blocker
        return BLOCKED

    @property
    def label(self) -> str:
        return f"receive({self.port.name})"


class _ReceiverBlocker:
    """A receiver parked on ``port``; ``timer`` is its armed receive
    timeout, or None."""

    __slots__ = ("port", "timer")

    def withdraw(self, process: Process) -> None:
        self.port._receivers.remove((process, self))
        if self.timer is not None:
            self.timer.cancel()

