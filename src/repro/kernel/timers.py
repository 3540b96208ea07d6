"""Deadline timers: interrupt a process at an absolute virtual time.

Transaction managers arm a :class:`DeadlineTimer` when a transaction
becomes ready; if the transaction is still running when the deadline
arrives, the timer throws the supplied interrupt into its process (the
TM catches it, aborts, and records the miss — the paper's hard-deadline
policy, "transactions that miss the deadline are aborted, and disappear
from the system").
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import ProcessInterrupt
from .kernel import Kernel
from .process import Process


class DeadlineTimer:
    """One-shot watchdog that interrupts ``process`` at ``time``.

    If the process terminates first, the interrupt is a harmless no-op;
    call :meth:`cancel` anyway to keep the event queue small.
    """

    def __init__(self, kernel: Kernel, process: Process, time: float,
                 make_interrupt: Callable[[], ProcessInterrupt]):
        self.kernel = kernel
        self.process = process
        self.time = time
        self.fired = False
        self._make_interrupt = make_interrupt
        self._event: Optional[object] = None
        # Delivery always goes through the event queue (never synchronous)
        # so a process may arm a timer on itself; a deadline already in
        # the past fires at the current instant.
        self._event = kernel.at(max(time, kernel.now), self._fire)

    def _fire(self) -> None:
        self._event = None
        self.fired = True
        self.kernel.interrupt(self.process, self._make_interrupt())

    def cancel(self) -> None:
        """Disarm the timer (idempotent; safe after firing)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def armed(self) -> bool:
        return self._event is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self.armed else ("fired" if self.fired
                                            else "cancelled")
        return f"DeadlineTimer(t={self.time:.6g}, {state})"
