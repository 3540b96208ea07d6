"""CPU server with preemptive-priority or non-preemptive FCFS service.

The paper's single-site experiments run transactions on one CPU per site:
"a high priority task will preempt the execution of lower priority tasks
unless it is blocked by the locking protocol at the database".  This
module provides that behaviour as a preemptive-resume priority server.

Priority inheritance integrates here: when a lock manager raises a
transaction's effective priority, the kernel pokes the CPU
(``on_priority_change``) and the dispatch decision is re-evaluated at the
same virtual instant, so an inheriting low-priority transaction starts
running immediately — exactly what bounds blocking in the priority
ceiling protocol.

For the no-priority baseline (protocol L) the CPU runs in ``fifo`` mode:
non-preemptive, first-come-first-served.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ..kernel.errors import SchedulingError
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from ..kernel.syscalls import BLOCKED, DONE, SysCall

POLICIES = ("priority", "fifo")


class _Job:
    """One CPU burst being serviced for a process.

    No ``__init__``: :meth:`CpuBurst.apply`, the one constructing
    site, stores the slots (a frame per burst otherwise).
    """

    __slots__ = ("process", "remaining", "seq", "cpu", "then")

    # Blocker protocol -------------------------------------------------
    def withdraw(self, process: Process) -> None:
        self.cpu._withdraw(self)

    def on_priority_change(self, process: Process) -> None:
        self.cpu._reschedule()


class CpuBurst(SysCall):
    """One CPU burst request, and the syscall chained to it (or
    None); build via :meth:`CPU.use`."""

    __slots__ = ("cpu", "amount", "then")

    def apply(self, kernel: Kernel, process: Process):
        if self.amount == 0:
            then = self.then
            return DONE if then is None else then.apply(kernel, process)
        cpu = self.cpu
        jobs = cpu._jobs
        if process in jobs:
            raise SchedulingError(
                f"process {process.name} already has a job on {cpu.name}")
        job = _Job()
        job.process = process
        job.remaining = self.amount
        job.seq = next(cpu._seq)
        job.cpu = cpu
        job.then = self.then
        process.blocker = job
        idle = not jobs
        jobs[process] = job
        if not idle:
            cpu._reschedule()
            return BLOCKED
        # Idle CPU — most bursts: there is nothing to select among or
        # to preempt, so the job starts now.  What _reschedule would
        # do, without it and _select.
        now = kernel.now
        cpu._running = job
        cpu._slice_start = now
        cpu._completion_event = kernel.events.schedule(
            now + job.remaining, cpu._complete)
        return BLOCKED

    @property
    def label(self) -> str:
        return f"cpu({self.cpu.name})"


class CPU:
    """A single CPU shared by all processes at one site."""

    def __init__(self, kernel: Kernel, name: str = "cpu",
                 policy: str = "priority"):
        if policy not in POLICIES:
            raise ValueError(f"unknown CPU policy {policy!r}; expected one "
                             f"of {POLICIES}")
        self.kernel = kernel
        self.name = name
        self.policy = policy
        self._jobs: Dict[Process, _Job] = {}
        self._running: Optional[_Job] = None
        self._slice_start = 0.0
        self._completion_event = None
        self._seq = itertools.count()
        #: Accumulated busy time, for utilisation statistics.
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def use(self, amount: float,
            then: Optional[SysCall] = None) -> "CpuBurst":
        """Syscall: consume ``amount`` units of CPU time, then, if
        given, the request ``then`` (an I/O burst).

        The calling process is blocked until its burst completes; it may
        be preempted (priority policy) and later resumed without losing
        progress (preemptive-resume).  The completion starts ``then``
        itself (:meth:`Kernel.wake`), so the process resumes once, when
        that request completes.
        """
        if amount < 0:
            raise ValueError(f"CPU burst must be >= 0, got {amount}")
        call = CpuBurst()
        call.cpu = self
        call.amount = amount
        call.then = then
        return call

    @property
    def load(self) -> int:
        """Number of bursts currently queued or running."""
        return len(self._jobs)

    @property
    def running_process(self) -> Optional[Process]:
        return self._running.process if self._running else None

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the CPU spent busy (includes the
        in-progress slice)."""
        busy = self.busy_time
        if self._running is not None:
            busy += self.kernel.now - self._slice_start
        return busy / elapsed if elapsed > 0 else 0.0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _select(self) -> Optional[_Job]:
        jobs = self._jobs
        if not jobs:
            return None
        # ``_jobs`` is in arrival order (a dict keeps insertion order
        # and every burst is inserted once, with the next ``seq``), so
        # its first job is the oldest and a strict ``>`` scan keeps
        # first-come-first-served among equal priorities.
        if self.policy == "fifo":
            # Non-preemptive FCFS: the current job always continues.
            if self._running is not None:
                return self._running
            return next(iter(jobs.values()))
        best = None
        best_priority = None
        for job in jobs.values():
            # Process.effective_priority, inlined (a frame per job).
            process = job.process
            priority = process.base_priority
            inherited = process.inherited_priority
            if inherited is not None and inherited > priority:
                priority = inherited
            if best is None or priority > best_priority:
                best = job
                best_priority = priority
        return best

    def _reschedule(self) -> None:
        best = self._select()
        if best is self._running:
            return
        now = self.kernel.now
        if self._running is not None:
            # Preempt: charge the elapsed slice and cancel the completion.
            elapsed = now - self._slice_start
            self._running.remaining -= elapsed
            self.busy_time += elapsed
            if self._running.remaining < -1e-9:
                raise SchedulingError(
                    f"negative remaining burst on {self.name}")
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
        self._running = best
        if best is not None:
            self._slice_start = now
            self._completion_event = self.kernel.at(
                now + best.remaining, self._complete)

    def _complete(self) -> None:
        job = self._running
        if job is None:
            raise SchedulingError(f"completion with no running job on "
                                  f"{self.name}")
        self._completion_event = None
        self.busy_time += self.kernel.now - self._slice_start
        self._running = None
        jobs = self._jobs
        del jobs[job.process]
        # An emptied CPU — most completions — has nothing to start.
        self.kernel.wake(job.process,
                         self._reschedule if jobs else None, job.then)

    def _withdraw(self, job: _Job) -> None:
        """Interrupt cleanup: remove the job, preempting if running."""
        if self._jobs.get(job.process) is not job:
            return
        if job is self._running:
            elapsed = self.kernel.now - self._slice_start
            self.busy_time += elapsed
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            self._running = None
            del self._jobs[job.process]
            self._reschedule()
        else:
            del self._jobs[job.process]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self._running.process.name if self._running else None
        return (f"CPU({self.name!r}, policy={self.policy}, "
                f"load={self.load}, running={running!r})")
