"""Message ports: intra-site inter-process communication.

The prototyping environment's server processes "communicate among
themselves through ports"; within a site, processes "send and receive
messages directly through their associated ports" without touching the
Message Server.  Ports here support both styles the paper names:

- asynchronous send (:meth:`Port.send`) — never blocks; the message is
  buffered if no receiver is waiting;
- Ada-style rendezvous (:meth:`Port.send_sync`) — the sender blocks until
  a receiver has retrieved the message.

Receives may carry a timeout (the paper's site-failure time-out
mechanism), delivered as a :class:`~repro.kernel.errors.Timeout`.

Every port is FIFO and unbounded: buffered messages, parked receivers
and parked rendezvous senders are each served in arrival order, so the
waiters sit in plain deques of ``(process, blocker)`` pairs rather than
a :class:`~repro.kernel.scheduler.WaitQueue`.  Every inter-site message
crosses two ports (the network into the Message Server's inbox, the
Message Server into the service port), so a delivery to a receiver
parked without a timeout calls nothing but :meth:`Kernel.ready`.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Optional, Tuple

from .errors import PortClosed, Timeout
from .kernel import Kernel
from .process import Process
from .syscalls import BLOCKED, DONE, Immediate, SysCall


class Port:
    """A named FIFO mailbox with blocking receive and optional
    rendezvous."""

    def __init__(self, kernel: Kernel, name: str = "port"):
        self.kernel = kernel
        self.name = name
        self.closed = False
        self._buffer: Deque[Any] = deque()
        #: Parked receivers, in arrival order.
        self._receivers: Deque[Tuple[Process, _ReceiverBlocker]] = deque()
        #: Senders parked in a rendezvous, in arrival order; each
        #: blocker carries its pending message.
        self._senders: Deque[Tuple[Process, _SenderBlocker]] = deque()

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, message: Any) -> None:
        """Asynchronous send: deliver to a waiting receiver or buffer."""
        if self.closed:
            raise self._closed_error()
        if self._receivers:
            receiver, blocker = self._receivers.popleft()
            if blocker.timer is not None:
                blocker.timer.cancel()
            self.kernel.ready(receiver, value=message)
        else:
            self._buffer.append(message)

    def send_sync(self, message: Any) -> "SendSync":
        """Syscall: rendezvous send; blocks until a receiver takes it."""
        call = SendSync()
        call.port = self
        call.message = message
        return call

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
        self._check_open()
        drained = list(self._buffer)
        self._buffer.clear()
        return drained

    def try_receive(self) -> Tuple[bool, Any]:
        """Non-blocking poll: (True, message) or (False, None)."""
        self._check_open()
        if self._buffer:
            return True, self._buffer.popleft()
        if self._senders:
            sender, blocker = self._senders.popleft()
            self.kernel.ready(sender)
            return True, blocker.message
        return False, None

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the port; pending waiters get :class:`PortClosed`."""
        self.closed = True
        for queue in (self._receivers, self._senders):
            for process, blocker in list(queue):
                # Leaves the queue (and disarms a receive timeout).
                blocker.withdraw(process)
                # A waiter whose own cleanup is closing the port (its
                # generator is being finalised while still parked, at
                # teardown of an abandoned run) has nobody left to
                # deliver the exception to.
                if not process.generator.gi_running:
                    self.kernel.ready(process, exc=self._closed_error())

    @property
    def queued(self) -> int:
        """Number of buffered (undelivered) messages."""
        return len(self._buffer)

    @property
    def waiting_receivers(self) -> int:
        return len(self._receivers)

    def _closed_error(self) -> PortClosed:
        return PortClosed(f"port {self.name!r} is closed")

    def _check_open(self) -> None:
        if self.closed:
            raise self._closed_error()

    def _expire(self, process: Process) -> None:
        if any(parked is process for parked, __ in self._receivers):
            self.kernel.interrupt(process, Timeout(self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Port({self.name!r}, queued={self.queued}, "
                f"receivers={self.waiting_receivers})")


class SendSync(SysCall):
    """Rendezvous send on a port; build via :meth:`Port.send_sync`."""

    __slots__ = ("port", "message")

    def apply(self, kernel: Kernel, process: Process):
        port = self.port
        if port.closed:
            raise port._closed_error()
        if port._receivers:
            receiver, blocker = port._receivers.popleft()
            if blocker.timer is not None:
                blocker.timer.cancel()
            kernel.ready(receiver, value=self.message)
            return DONE
        blocker = _SenderBlocker()
        blocker.port = port
        blocker.message = self.message
        port._senders.append((process, blocker))
        process.blocker = blocker
        return BLOCKED

    @property
    def label(self) -> str:
        return f"send_sync({self.port.name})"


class Receive(SysCall):
    """Blocking receive on a port; build via :meth:`Port.receive`."""

    __slots__ = ("port", "timeout")

    def apply(self, kernel: Kernel, process: Process):
        port = self.port
        if port.closed:
            raise port._closed_error()
        if port._buffer:
            return Immediate(port._buffer.popleft())
        if port._senders:
            sender, blocker = port._senders.popleft()
            kernel.ready(sender)
            return Immediate(blocker.message)
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


class _SenderBlocker:
    """A rendezvous sender parked on ``port`` with its ``message``."""

    __slots__ = ("port", "message")

    def withdraw(self, process: Process) -> None:
        self.port._senders.remove((process, self))
