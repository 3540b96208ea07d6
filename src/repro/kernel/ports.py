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
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Optional, Tuple

from .errors import PortClosed, Timeout
from .kernel import Kernel
from .process import Process
from .scheduler import WaitQueue
from .syscalls import BLOCKED, DONE, Immediate, SysCall


class Port:
    """A named mailbox with blocking receive and optional rendezvous."""

    def __init__(self, kernel: Kernel, name: str = "port",
                 receiver_policy: str = "fifo"):
        self.kernel = kernel
        self.name = name
        self.closed = False
        self._buffer: Deque[Any] = deque()
        self._receivers: WaitQueue = WaitQueue(receiver_policy)
        #: Senders parked in a rendezvous, with their pending messages.
        self._senders: WaitQueue = WaitQueue("fifo")

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, message: Any) -> None:
        """Asynchronous send: deliver to a waiting receiver or buffer."""
        self._check_open()
        if self._receivers:
            receiver, blocker = self._receivers.pop()
            blocker.clear_timer()
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
            sender, (__, message) = self._senders.pop()
            self.kernel.ready(sender)
            return True, message
        return False, None

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the port; pending waiters get :class:`PortClosed`."""
        self.closed = True
        for queue in (self._receivers, self._senders):
            for process in list(queue.processes()):
                # Leaves the queue (and disarms a receive timeout).
                process.blocker.withdraw(process)
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
        if process in self._receivers:
            self.kernel.interrupt(process, Timeout(self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Port({self.name!r}, queued={self.queued}, "
                f"receivers={self.waiting_receivers})")


class SendSync(SysCall):
    """Rendezvous send on a port; build via :meth:`Port.send_sync`."""

    __slots__ = ("port", "message")

    def apply(self, kernel: Kernel, process: Process):
        port = self.port
        port._check_open()
        if port._receivers:
            receiver, blocker = port._receivers.pop()
            blocker.clear_timer()
            kernel.ready(receiver, value=self.message)
            return DONE
        blocker = _SenderBlocker(port)
        port._senders.push(process, (blocker, self.message))
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
        port._check_open()
        if port._buffer:
            return Immediate(port._buffer.popleft())
        if port._senders:
            sender, (__, message) = port._senders.pop()
            kernel.ready(sender)
            return Immediate(message)
        blocker = _ReceiverBlocker(port)
        port._receivers.push(process, blocker)
        if self.timeout is not None:
            blocker.timer = kernel.after(
                self.timeout, partial(port._expire, process))
        process.blocker = blocker
        return BLOCKED

    @property
    def label(self) -> str:
        return f"receive({self.port.name})"


class _ReceiverBlocker:
    __slots__ = ("port", "timer")

    def __init__(self, port: Port):
        self.port = port
        self.timer = None

    def clear_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def withdraw(self, process: Process) -> None:
        self.port._receivers.remove(process)
        self.clear_timer()


class _SenderBlocker:
    __slots__ = ("port",)

    def __init__(self, port: Port):
        self.port = port

    def withdraw(self, process: Process) -> None:
        self.port._senders.remove(process)
