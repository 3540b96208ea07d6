"""TurboKernel: the dispatch loop over the calendar queue.

Same kernel, different event core.  :class:`TurboKernel` subclasses the
reference :class:`~repro.kernel.kernel.Kernel` and overrides exactly
two things: the event-queue factory (installing a
:class:`~repro.kernel.turbo.calendar.CalendarEventQueue`) and the
``run`` loop.  Every other service — process control, syscalls, clock,
RNG streams, tracing hooks, the controlled arm of ``Kernel.run`` — is
inherited, which is what makes the bitwise contract provable: both
engines execute the identical model code in the identical event order
(see the ordering proof in :mod:`.calendar`), so they cannot diverge.

What the turbo loop adds over the reference loop:

- **Calendar dispatch** — pops come off the current bucket's drain
  tail (O(1)) with a one-comparison spill merge, instead of sifting a
  global heap.
- **Resume recycling** — a dispatched (or reaped-dead) resume event
  goes back to the queue's freelist; steady-state process wake-ups
  allocate no event objects (see :meth:`CalendarEventQueue.recycle`
  for the aliasing argument).

Traced, metered and sanitized runs never reach this loop:
:func:`~repro.kernel.turbo.make_kernel` builds the reference engine
for those.  A controlled run takes the reference controlled arm.
"""

from __future__ import annotations

from heapq import heappop
from typing import Optional

from ..errors import SimulationOver
from ..kernel import Kernel
from .calendar import CalendarEventQueue


class TurboKernel(Kernel):
    """Drop-in kernel with the calendar queue and its dispatch loop."""

    fuses_wakes = False  # Kernel.wake keeps the queued path here

    def _new_event_queue(self) -> CalendarEventQueue:
        return CalendarEventQueue()

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch until the queue drains or ``until``; returns the
        final virtual time.  Same contract (and same re-entrancy
        refusal) as the reference loop."""
        if self.controller is not None:
            return super().run(until)
        if self._dispatching:
            raise SimulationOver("Kernel.run is not re-entrant")
        self._dispatching = True
        events = self.events
        resume = self._resume
        recycle = events.recycle
        hooks = self.hooks
        if hooks is not None:
            sample, sample_at = hooks.kernel_sample, hooks.sample_due()
        else:
            sample, sample_at = None, float("inf")
        # Stable aliases: the calendar mutates both lists in place
        # (rebucketing included), never rebinds them.
        drain = events._drain
        spill = events._spill
        try:
            while True:
                # Reap dead prefixes (recycling reaped resumes: their
                # pending_resume handle was cleared before cancel).
                while drain and drain[-1][3].cancelled:
                    event = drain.pop()[3]
                    events.note_dead()
                    if event.callback is None:
                        recycle(event)
                while spill and spill[0][3].cancelled:
                    event = heappop(spill)[3]
                    events.note_dead()
                    if event.callback is None:
                        recycle(event)
                if drain:
                    if spill and spill[0] < drain[-1]:
                        entry = spill[0]
                        from_spill = True
                    else:
                        entry = drain[-1]
                        from_spill = False
                elif spill:
                    entry = spill[0]
                    from_spill = True
                else:
                    # Current bucket exhausted: open the next one.
                    if not events._advance():
                        break
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                if from_spill:
                    heappop(spill)
                else:
                    drain.pop()
                events._count -= 1
                self.now = time
                if time >= sample_at:
                    sample_at = sample(time, self)
                event = entry[3]
                callback = event.callback
                if callback is not None:
                    callback()
                else:
                    resume(event.process, event.value, event.exc)
                    recycle(event)
        finally:
            self._dispatching = False
        if until is not None and self.now < until:
            self.now = until
        return self.now
