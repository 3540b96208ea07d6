"""The concurrent kernel: discrete-event engine + process control.

This is the reproduction of the StarLite kernel layer the paper's
prototyping environment stands on: it supports creating, readying,
blocking, interrupting and terminating processes, with deterministic
virtual time.  All model layers (resources, database, concurrency
control, transaction managers, message servers) are ordinary process
code on top of this kernel — exactly the layering the paper argues for,
where swapping a synchronization protocol touches only its own module.
"""

from __future__ import annotations

import itertools
from functools import partial
from heapq import heappop
from typing import Any, Callable, Generator, List, Optional

from .controlled import entry_label
from .errors import (InvalidProcessState, KernelError, ProcessInterrupt,
                     SimulationOver)
from .events import Event, EventQueue
from .hooks import Hooks, activation
from .process import Process, ProcessState
from .rng import RngStreams
from .syscalls import BLOCKED, DONE, Immediate, SysCall

# Enum members read once: the process-control paths below test and
# store them on every resume.
_READY = ProcessState.READY
_RUNNING = ProcessState.RUNNING
_BLOCKED = ProcessState.BLOCKED
_TERMINATED = ProcessState.TERMINATED


class Kernel:
    """Owns the clock, the event queue, and every process."""

    #: Engine capability: :meth:`wake` may step the woken process
    #: inside the completion callback when the instant is quiet.  An
    #: engine whose queue cannot answer "is anything else due now?"
    #: (turbo) overrides it to False and keeps the queued path; tests
    #: store False on one kernel to get the queued path as an oracle.
    fuses_wakes = True

    def __init__(self, seed: int = 0, hooks: Optional[Hooks] = None):
        #: Current virtual time, in abstract "time units" (the paper
        #: reports delays and processing costs in the same units).  A
        #: plain attribute so that reading it — the most frequent
        #: kernel access of all — costs no frame.  Read-only for model
        #: code: only the dispatch loops under ``kernel/`` store it,
        #: as they pop events (lint rule RPL015 bans other writes).
        self.now = 0.0
        self.events = self._new_event_queue()
        self.rng = RngStreams(seed)
        self.processes: List[Process] = []
        self._pids = itertools.count(1)
        #: The instrumentation slot (:mod:`repro.kernel.hooks`): what
        #: every layer on this kernel reports to, or None when nothing
        #: observes.  Sampled here, once: activate observers *before*
        #: building the system they should see.
        self.hooks = hooks if hooks is not None else activation()
        #: Optional SchedulerController (repro.kernel.controlled):
        #: when set, :meth:`run` and :meth:`step` let it pick among
        #: tied events, and priority wait queues among tied waiters.
        self.controller = None
        self._dispatching = False
        #: Alias of the event queue's heap while the reference loop is
        #: dispatching with :attr:`fuses_wakes` on, else None — the
        #: flag and the operand of :meth:`wake`'s quiet-instant test in
        #: one attribute read.
        self._quiet = None
        #: Completions whose resume, or chained follow-on start,
        #: :meth:`wake` ran in place instead of scheduling it
        #: (``kernel.wakes_fused`` when metered).  A fused wake
        #: dispatches no event, so ``events_dispatched`` alone
        #: under-reports the work scheduled by this count.
        self.fused_wakes = 0
        #: Effective-priority changes applied through
        #: :meth:`set_inherited_priority`.  A protocol that caches a
        #: view of its waiters' priorities compares this against the
        #: value it last saw to learn that *another* protocol instance
        #: on this kernel moved one of them.
        self.inheritance_changes = 0

    def _new_event_queue(self):
        """Factory hook: engines substitute their own event structure
        (the turbo engine installs a calendar queue) while every other
        kernel service — processes, clock, RNG streams, hooks — stays
        shared between engines."""
        return EventQueue()

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule a bare callback at an absolute time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < "
                             f"{self.now}")
        return self.events.schedule(time, callback)

    def after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule a bare callback ``delay`` units from now."""
        time = self.now + delay
        if time < self.now:
            return self.at(time, callback)  # raises, with the diagnosis
        return self.events.schedule(time, callback)

    # ------------------------------------------------------------------
    # process control
    # ------------------------------------------------------------------
    def spawn(self, body: Generator, name: str,
              priority: float = 0.0) -> Process:
        """Create a process and schedule its first step at the current
        time (or at simulation start, if called before :meth:`run`)."""
        if not hasattr(body, "send"):
            raise TypeError(
                f"process body must be a generator (did you forget to call "
                f"the generator function?): got {type(body).__name__}")
        process = Process(body, name, priority, next(self._pids))
        self.processes.append(process)
        process.state = _READY
        process.pending_resume = self.events.schedule_resume(
            self.now, process)
        return process

    def ready(self, process: Process, value: Any = None,
              exc: Optional[BaseException] = None) -> None:
        """Unblock ``process``; it resumes at the current instant with
        ``value`` as the result of its pending yield (or with ``exc``
        thrown into it).  Called by blockers (ports, CPUs, lock
        managers) when the condition a process waited on occurs."""
        if process.state is not _BLOCKED:
            process.check_not_terminated()
            raise InvalidProcessState(
                f"ready() on non-blocked process {process}")
        process.blocker = None
        process.state = _READY
        process.pending_resume = self.events.schedule_resume(
            self.now, process, value, exc)

    def wake(self, process: Process,
             then: Optional[Callable[[], None]] = None,
             follow: Optional[SysCall] = None) -> None:
        """The tail of a completion callback: unblock ``process`` —
        its delay expired, its burst finished — and run ``then()``, the
        completing structure's own re-dispatch (a CPU starting its next
        job).  ``then`` must not touch ``process``.

        Equivalent to ``ready(process)`` followed by ``then()``, and on
        a *quiet instant* one event cheaper: the resume ``ready`` would
        schedule carries the highest sequence number of the current
        instant, so when nothing else is queued at ``time <= now`` it
        is provably the next event dispatched, and stepping the process
        right here is the same schedule.  The test reads only the top
        of the heap, so a cancelled entry there counts as a tie (it
        may hide a live one at the same instant), and it is made
        *before* ``then()``, which may itself land an entry at ``now``
        (a next job with nothing left to run) that the queued resume
        would still have preceded.

        ``follow`` is the syscall the finished burst chained (the I/O
        of ``cpu.use(a, then=io.use(b))``): the process's next request,
        started here instead of by the process.  On a quiet instant it
        is applied right after ``then()``; otherwise a start event
        takes the resume's sequence slot, holding the process until it
        fires, and ``then()`` runs after it.  Either way the step the
        process would have taken to yield it is gone; a follow-on that
        completes at once resumes the process.

        Fuses only while :meth:`run` or :meth:`step` dispatches, under
        a controller too (a fusable resume is never tied, so never a
        choice point); on an engine without the capability, or called
        by hand outside dispatch, it is the queued path.
        """
        heap = self._quiet
        if (heap is not None and process.state is _BLOCKED
                and not (heap and heap[0][0] <= self.now)):
            process.blocker = None
            self.fused_wakes += 1
            if then is not None:
                then()
            if follow is None:
                self._resume(process, None, None)
            elif follow.pure_delay and follow.duration:
                # What the follow-on's ``apply`` does, without its frame
                # (one per object access).
                follow.meter.requests += 1
                process.blocker = self.events.schedule(
                    self.now + follow.duration, partial(self.wake, process))
            elif follow.apply(self, process) is not BLOCKED:
                self._resume(process, None, None)
            return
        if follow is not None and process.state is _BLOCKED:
            # Withdrawn like a delay: cancelling the start is all an
            # interrupt has to undo.
            process.blocker = self.events.schedule(
                self.now, partial(self._start_follow, process, follow))
        else:
            self.ready(process)
        if then is not None:
            then()

    def _start_follow(self, process: Process, follow: SysCall) -> None:
        """The queued half of :meth:`wake`'s chain: apply ``follow`` in
        the slot where the resume that yielded it would have run."""
        process.blocker = None
        if follow.apply(self, process) is not BLOCKED:
            self._resume(process, None, None)

    def interrupt(self, process: Process,
                  exc: ProcessInterrupt) -> bool:
        """Throw ``exc`` into ``process`` at the current instant.

        Withdraws the process from whatever it is blocked on (delay, CPU
        burst, lock queue, port), so the structure's state stays
        consistent.  Returns False if the process already terminated
        (the interrupt is then a no-op — e.g. a deadline timer firing
        just as its transaction commits).
        """
        if process.state is _TERMINATED:
            return False
        if process.state is _RUNNING:
            raise InvalidProcessState("a process cannot interrupt itself; "
                                      "raise the exception directly instead")
        if process.pending_resume is not None:
            self.events.cancel(process.pending_resume)
            process.pending_resume = None
        if process.blocker is not None:
            process.blocker.withdraw(process)
            process.blocker = None
        process.state = _READY
        process.pending_resume = self.events.schedule_resume(
            self.now, process, None, exc)
        return True

    def set_inherited_priority(self, process: Process,
                               priority: Optional[float]) -> None:
        """Apply priority inheritance to ``process``.

        If the effective priority changes while the process is consuming
        a priority-sensitive resource (the CPU), the resource is poked so
        preemption decisions are re-evaluated immediately.
        """
        if not process.inherit(priority):
            return
        self.inheritance_changes += 1
        if process.blocker is not None:
            poke = getattr(process.blocker, "on_priority_change", None)
            if poke is not None:
                poke(process)

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the queue drains or ``until`` is reached.

        Returns the final virtual time.  Re-entrant calls are forbidden
        (model code must not call run from inside a process).

        This is the hottest loop in the repository: the peek/pop pair
        and the clock advance are inlined into direct heap accesses
        and a plain attribute store (the queue's tuple order
        guarantees non-decreasing times, so the monotonicity check
        :meth:`step` makes is redundant here), and process resumes read
        their arguments off the event instead of calling through a
        per-event closure.  With a :attr:`controller` installed the
        run takes a third arm, :meth:`_dispatch_next` per event, so
        neither hot arm pays a tie test.
        """
        if self._dispatching:
            raise SimulationOver("Kernel.run is not re-entrant")
        self._dispatching = True
        events = self.events
        controller = self.controller
        # The alias is stable: compaction filters the heap in place,
        # never rebinds it.  Turbo, which fuses nothing, enters this
        # loop only for the controlled arm, which needs no alias.
        heap = (events.prepare_dispatch()
                if controller is None or self.fuses_wakes else None)
        if self.fuses_wakes:
            self._quiet = heap
        resume = self._resume
        # Queue sampling: one float comparison per event, true only
        # when a subscriber's sampling window has elapsed — never when
        # nothing observes (sample_at stays +inf).
        hooks = self.hooks
        if hooks is not None:
            sample, sample_at = hooks.kernel_sample, hooks.sample_due()
        else:
            sample, sample_at = None, float("inf")
        try:
            if controller is not None:
                while self._dispatch_next(controller, until):
                    pass
            elif until is None:
                # Drain-everything loop: pop unconditionally (nothing
                # can outlive an unbounded run, so no peek needed).
                while heap:
                    entry = heappop(heap)
                    event = entry[3]
                    if event.cancelled:
                        events.note_dead()
                        continue
                    self.now = entry[0]
                    if entry[0] >= sample_at:
                        sample_at = sample(entry[0], self)
                    callback = event.callback
                    if callback is not None:
                        callback()
                    else:
                        resume(event.process, event.value, event.exc)
            else:
                while heap:
                    entry = heap[0]
                    event = entry[3]
                    if event.cancelled:
                        heappop(heap)
                        events.note_dead()
                        continue
                    if entry[0] > until:
                        break
                    heappop(heap)
                    self.now = entry[0]
                    if entry[0] >= sample_at:
                        sample_at = sample(entry[0], self)
                    callback = event.callback
                    if callback is not None:
                        callback()
                    else:
                        resume(event.process, event.value, event.exc)
        finally:
            self._dispatching = False
            self._quiet = None
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def close(self) -> None:
        """Close the generator of every process that never terminated
        (server loops; the transactions of a cut or abandoned run), so
        its cleanup runs now, quietly — not at garbage collection,
        where a ``finally`` block firing against a half-torn-down
        system prints ignored-exception noise."""
        for process in self.processes:
            if process.state is not _TERMINATED:
                try:
                    process.generator.close()
                except BaseException:
                    pass

    def step(self) -> bool:
        """Dispatch a single event; returns False when the queue is empty.

        One event is not always one action: a completion that ends in
        :meth:`wake` on a quiet instant steps the woken process inside
        the same ``step()`` (a delay expiring with nothing else due
        runs the body up to its next block), where a tied instant
        takes a second ``step()`` for the queued resume.  Under a
        :attr:`controller` the event is the chooser's pick: one step is
        one event of the controlled :meth:`run`.

        Guarded against re-entrant use exactly like :meth:`run` — a
        step from inside a dispatching event callback would corrupt the
        clock/queue invariants the same way a nested run would.
        """
        if self._dispatching:
            raise SimulationOver("Kernel.step is not re-entrant")
        self._dispatching = True
        try:
            if self.fuses_wakes:
                self._quiet = self.events.prepare_dispatch()
            return self._dispatch_next(self.controller, None)
        finally:
            self._dispatching = False
            self._quiet = None

    def _dispatch_next(self, controller, until: Optional[float]) -> bool:
        """Dispatch one event: :meth:`step`, and the controlled arm of
        :meth:`run`.  Returns False when nothing is due by ``until``.

        Pops every live event tied at the earliest ``(time, key)``;
        when there are several, ``controller`` (if any) picks one —
        alternative 0 is the entry the other arms would pop.  The rest
        go back untouched *before* the dispatch, which may schedule or
        cancel events, and the order among them is re-decided next time.
        """
        events = self.events
        batch = events.pop_tied_entries()
        if not batch:
            return False
        time = batch[0][0]
        if until is not None and time > until:
            for entry in batch:
                events.push_entry(entry)
            return False
        if time < self.now:
            # A corrupted queue, not a scheduling decision: refuse
            # rather than silently un-order the simulation.
            raise ValueError(f"clock cannot move backwards: "
                             f"{time} < {self.now}")
        index = 0
        if controller is not None and len(batch) > 1:
            index = controller._choose(
                "event", time, tuple(entry_label(entry) for entry in batch),
                tuple(entry[2] for entry in batch))
        event = batch.pop(index)[3]
        for entry in batch:
            events.push_entry(entry)
        self.now = time
        hooks = self.hooks
        if hooks is not None and time >= hooks.sample_due():
            hooks.kernel_sample(time, self)
        if event.callback is not None:
            event.callback()
        else:
            self._resume(event.process, event.value, event.exc)
        if controller is not None:
            controller.dispatched += 1
            after = controller.after_dispatch
            if after is not None:
                after(self, event)
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resume(self, process: Process, value: Any,
                exc: Optional[BaseException]) -> None:
        """Step the process generator until it blocks or terminates."""
        process.pending_resume = None
        process.state = _RUNNING
        generator = process.generator
        send = generator.send
        while True:
            try:
                if exc is not None:
                    item = generator.throw(exc)
                    # The thrown exception's traceback reaches this
                    # frame (a deadlock victim's DeadlockAbort, a
                    # DeadlineMiss the body caught): holding it here,
                    # on any exit, would make a cycle.
                    exc = None
                else:
                    item = send(value)
            except StopIteration:
                exc = None
                self._terminate(process)
                return
            except ProcessInterrupt as interrupt:
                # An interrupt the body chose not to handle terminates
                # the process cleanly, recording the cause.
                exc = None
                self._terminate(process, exception=interrupt)
                return
            if not isinstance(item, SysCall):
                raise TypeError(
                    f"process {process.name} yielded {item!r}; processes "
                    f"must yield SysCall objects")
            try:
                outcome = item.apply(self, process)
            except (ProcessInterrupt, KernelError) as raised:
                # A syscall may fail its own caller — a lock request that
                # makes the requester the deadlock victim, a receive on a
                # closed port.  Deliver the exception at the yield point;
                # if the body does not handle a KernelError it propagates
                # out of the generator and crashes the run loudly.
                exc = raised
                continue
            # Identity first: the two shared outcomes cover almost every
            # syscall, and only a boxed value needs the type check.
            if outcome is BLOCKED:
                if process.blocker is None:
                    raise InvalidProcessState(
                        f"syscall {type(item).__name__} returned BLOCKED "
                        f"without registering a blocker on {process}")
                process.state = _BLOCKED
                return
            if outcome is DONE:
                value = None
            elif isinstance(outcome, Immediate):
                value = outcome.value
            else:
                raise TypeError(
                    f"syscall {type(item).__name__} returned {outcome!r}")

    def _terminate(self, process: Process,
                   exception: Optional[BaseException] = None) -> None:
        # Both callers caught what ended the generator (StopIteration
        # or the interrupt it let through): it is finished, and has
        # nothing left for close() to do.
        process.state = _TERMINATED
        process.exception = exception
        # The payload (a TM's Transaction) points back at its process:
        # dropping it lets the transaction go at its last reference
        # instead of leaving the pair to the cyclic collector.
        process.payload = None
