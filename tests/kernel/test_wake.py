"""``Kernel.wake``: a completion steps its process in place exactly when
the queued resume would have been the next event anyway.

The queued path (``ready(process)`` then ``then()``) is the oracle.
Every ordering test below builds an instant where fusing *wrongly*
would reorder two observable actions, and names the guard mutant it
kills; the counting tests pin that a quiet instant really costs one
event less, that nothing fuses outside dispatch and that a controlled
run fuses exactly as the plain one.  The chain tests hold a burst's
follow-on start to the same rule, the two-yield body as their oracle.
"""

import re

import pytest

from repro.kernel import (Delay, Kernel, ProcessInterrupt, ProcessState,
                          SchedulerController)
from repro.kernel.errors import InvalidProcessState
from repro.resources import CPU, DiskArray, ParallelIO


def dispatched(kernel):
    return kernel.events.queue_stats()[1]


def logging_wakes(kernel, log):
    """Log every ``kernel.wake`` (completions bind the instance
    attribute when they are scheduled)."""
    wake = kernel.wake

    def logged(process, then=None):
        log.append(("wake", process.name))
        wake(process, then)

    kernel.wake = logged


def sleeper(kernel, log, name, *delays):
    def body():
        for delay in delays:
            yield Delay(delay)
            log.append((name, kernel.now))

    return kernel.spawn(body(), name)


# ----------------------------------------------------------------------
# the quiet instant
# ----------------------------------------------------------------------
def test_a_quiet_delay_expiry_is_one_dispatched_event():
    kernel = Kernel()
    log = []
    sleeper(kernel, log, "p", 1.0, 1.0)
    kernel.run()
    assert log == [("p", 1.0), ("p", 2.0)]
    assert kernel.fused_wakes == 2
    assert dispatched(kernel) == 3  # the spawn + one event per delay


def test_the_queued_path_pays_a_resume_event_per_expiry():
    kernel = Kernel()
    kernel.fuses_wakes = False
    log = []
    sleeper(kernel, log, "p", 1.0, 1.0)
    kernel.run()
    assert log == [("p", 1.0), ("p", 2.0)]
    assert kernel.fused_wakes == 0
    assert dispatched(kernel) == 5


def test_a_fused_wake_clears_the_blocker_before_the_body_steps():
    # Mutant: ``process.blocker`` left set.
    kernel = Kernel()
    seen = []

    def body():
        yield Delay(1.0)
        seen.append((process.blocker, process.state,
                     process.pending_resume))

    process = kernel.spawn(body(), "p")
    kernel.run()
    assert kernel.fused_wakes == 1
    assert seen == [(None, ProcessState.RUNNING, None)]


@pytest.mark.parametrize("make", [
    lambda kernel: Delay(2.0),
    lambda kernel: ParallelIO(kernel).use(2.0),
    lambda kernel: DiskArray(kernel).use(2.0),
    lambda kernel: CPU(kernel).use(2.0),
], ids=["delay", "io", "disk", "cpu"])
def test_every_completion_tail_fuses_when_nothing_else_is_due(make):
    kernel = Kernel()
    request = make(kernel)
    log = []

    def body():
        yield request
        log.append(kernel.now)

    kernel.spawn(body(), "p")
    kernel.run()
    assert log == [2.0]
    assert kernel.fused_wakes == 1
    assert dispatched(kernel) == 2


# ----------------------------------------------------------------------
# ties keep the queued order
# ----------------------------------------------------------------------
def test_two_delays_expiring_together_both_call_back_before_either_steps():
    # Mutant: ``<=`` -> ``<`` (an entry *at* now is a tie).
    kernel = Kernel()
    log = []
    logging_wakes(kernel, log)
    sleeper(kernel, log, "a", 1.0)
    sleeper(kernel, log, "b", 1.0)
    kernel.run()
    assert log == [("wake", "a"), ("wake", "b"), ("a", 1.0), ("b", 1.0)]
    assert kernel.fused_wakes == 0


def test_a_cancelled_entry_at_now_on_top_of_the_heap_counts_as_a_tie():
    # The guard only looks at the top of the heap; a dead entry there
    # may hide a live one due at the same instant (here: ``late``).
    kernel = Kernel()
    log = []
    sleeper(kernel, log, "p", 1.0)

    def arm():  # runs after p parked, so both entries sort behind it
        kernel.at(1.0, lambda: None).cancel()
        kernel.at(1.0, lambda: log.append("late"))

    kernel.at(0.0, arm)
    kernel.run()
    assert log == ["late", ("p", 1.0)]
    assert kernel.fused_wakes == 0


def test_the_drain_backlog_does_not_stop_a_quiet_wake():
    # A deep heap of later entries: only its top is read.
    kernel = Kernel()
    log = []
    sleeper(kernel, log, "p", 1.0)
    kernel.run(until=0.5)
    for index in range(2048):
        kernel.at(5.0 + index, lambda: None)
    kernel.run()
    assert log == [("p", 1.0)]
    assert kernel.fused_wakes == 1


def test_a_compaction_inside_run_keeps_order_and_the_quiet_guard():
    # One callback cancels 60 of 80 pending timers, so the heap is
    # compacted while the run loop and wake's guard alias it.
    kernel = Kernel()
    fired = []
    timers = [kernel.at(10.0 + index % 7,
                        lambda index=index: fired.append(index))
              for index in range(80)]
    heap = kernel.events.prepare_dispatch()
    seen = []

    def cancel_most():
        for index, timer in enumerate(timers):
            if index % 4:
                timer.cancel()
        seen.append((kernel.events.prepare_dispatch() is heap, len(heap),
                     kernel.events.queue_stats()))

    kernel.at(1.0, cancel_most)
    log = []
    sleeper(kernel, log, "p", 5.0)
    kernel.run()
    # Compacted at the 41st cancellation (81 entries): 40 remain, and
    # the 19 later cancellations stay as dead entries.
    assert seen == [(True, 40, (21, 2, 60))]
    survivors = [index for index in range(80) if index % 4 == 0]
    assert fired == sorted(survivors,
                           key=lambda index: (10.0 + index % 7, index))
    # The expiry at t=5 read the compacted heap's top (t=10): quiet.
    assert log == [("p", 5.0)]
    assert kernel.fused_wakes == 1
    assert kernel.events.queue_stats() == (0, 23, 60)


# ----------------------------------------------------------------------
# then(): the CPU's re-dispatch
# ----------------------------------------------------------------------
def test_a_completion_starts_the_waiting_job_before_the_woken_body_steps():
    # Mutant: ``then()`` after the step.  ``lo``'s completion must be
    # scheduled before ``hi`` steps and parks on a delay due at the
    # same instant, or the two fire in the other order at t=2.
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []
    seen = []

    def hi_body():
        yield cpu.use(1.0)
        seen.append((cpu.running_process, cpu._completion_event.time))
        yield Delay(1.0)
        log.append("hi woke")

    def lo_body():
        yield cpu.use(1.0)
        log.append("lo finished")

    kernel.spawn(hi_body(), "hi", priority=2)
    lo = kernel.spawn(lo_body(), "lo", priority=1)
    kernel.run()
    assert seen == [(lo, 2.0)]
    assert log == ["lo finished", "hi woke"]
    assert kernel.fused_wakes == 1  # hi's burst; t=2 is a tie


def test_a_spent_job_restarted_by_then_completes_after_the_woken_body():
    # Mutant: guard read after ``then()``.  ``lo`` is preempted at the
    # very instant its burst ends (remaining == 0) by a priority boost
    # of ``mid``; when ``mid`` finishes, the re-dispatch lands ``lo``'s
    # completion at ``now``.  The queued resume of ``mid`` would still
    # have preceded it, so that entry must not count as a tie.
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []

    def body(name):
        yield cpu.use(1.0)
        log.append((name, kernel.now))

    kernel.at(1.0, lambda: kernel.set_inherited_priority(mid, 9.0))
    kernel.spawn(body("lo"), "lo", priority=2)
    mid = kernel.spawn(body("mid"), "mid", priority=1)
    kernel.run()
    assert log == [("mid", 2.0), ("lo", 2.0)]
    assert kernel.fused_wakes == 2
    assert cpu.busy_time == pytest.approx(2.0)


def test_an_emptied_cpu_is_not_rescheduled_and_the_next_burst_starts_it():
    kernel = Kernel()
    cpu = CPU(kernel)
    calls = []
    cpu._reschedule = lambda: calls.append(kernel.now)
    log = []

    def body():
        yield cpu.use(1.0)
        yield cpu.use(0.5)
        log.append(kernel.now)

    kernel.spawn(body(), "p")
    kernel.run()
    assert log == [1.5]
    assert calls == []  # idle dispatch and empty completion skip it
    assert cpu.busy_time == pytest.approx(1.5)
    assert cpu.load == 0 and cpu.running_process is None


# ----------------------------------------------------------------------
# where it must not fuse
# ----------------------------------------------------------------------
def test_wake_by_hand_outside_dispatch_is_the_queued_path():
    kernel = Kernel()
    log = []
    process = sleeper(kernel, log, "p", 1.0)
    assert kernel.step() is True  # p parks on its delay
    ran = []
    kernel.wake(process, lambda: ran.append("then"))
    assert ran == ["then"]
    assert process.state is ProcessState.READY
    assert process.pending_resume is not None
    assert log == [] and kernel.fused_wakes == 0


def test_a_controller_fuses_as_the_plain_run_does():
    # The resumes of ``a`` and ``b`` tie at 1.0 (queued); ``p`` expires
    # alone at 1.5 (fused), then at 2.5 ahead of a cancelled entry
    # armed at 2.0, which every arm must leave queued (a tie: queued).
    def run(controlled):
        kernel = Kernel()
        if controlled:
            SchedulerController().install(kernel)
        log = []
        sleeper(kernel, log, "p", 1.5, 1.0)
        sleeper(kernel, log, "a", 1.0)
        sleeper(kernel, log, "b", 1.0)
        kernel.at(2.0, lambda: kernel.at(2.5, lambda: None).cancel())
        kernel.run()
        assert kernel.step() is False
        return log, kernel.fused_wakes, kernel.events.queue_stats()

    plain = run(controlled=False)
    assert plain[1] == 1
    assert run(controlled=True) == plain


def test_the_guard_is_disarmed_when_the_loop_exits():
    kernel = Kernel()
    sleeper(kernel, [], "p", 1.0)
    kernel.run(until=0.5)
    assert kernel._quiet is None
    kernel.step()
    assert kernel._quiet is None and kernel.fused_wakes == 1


@pytest.mark.parametrize("fuses", [True, False])
def test_wake_on_a_non_blocked_process_raises_what_ready_raises(fuses):
    def outcome(call_name, terminated):
        kernel = Kernel()
        kernel.fuses_wakes = fuses

        def body():
            yield Delay(1.0)

        if terminated:
            process = kernel.spawn(body(), "p")
            kernel.run()
        # From inside the loop, where a blocked process would fuse.
        kernel.at(kernel.now,
                  lambda: getattr(kernel, call_name)(process))
        if not terminated:  # READY: its first resume is still queued
            process = kernel.spawn(body(), "p")
        with pytest.raises(InvalidProcessState) as caught:
            kernel.run()
        assert kernel.fused_wakes == (1 if terminated and fuses else 0)
        return re.sub(r"pid.\d+", "pid", str(caught.value))

    for terminated, message in ((False, "non-blocked"),
                                (True, "already terminated")):
        assert message in outcome("wake", terminated)
        assert outcome("wake", terminated) == outcome("ready", terminated)


class Stop(ProcessInterrupt):
    pass


@pytest.mark.parametrize("make", [
    lambda kernel: Delay(4.0),
    lambda kernel: ParallelIO(kernel).use(4.0),
], ids=["delay", "io"])
def test_interrupt_before_expiry_still_cancels_the_wake(make):
    kernel = Kernel()
    request = make(kernel)
    log = []

    def body():
        yield Delay(1.0)  # a fused wake first: its blocker is gone
        try:
            yield request
            log.append("expired")
        except Stop:
            log.append(("stopped", kernel.now))
            yield Delay(10.0)
            log.append(("resumed", kernel.now))

    process = kernel.spawn(body(), "p")
    kernel.at(3.0, lambda: kernel.interrupt(process, Stop()))
    kernel.run()
    # The t=5 expiry was cancelled: it neither stepped p nor counted.
    assert log == [("stopped", 3.0), ("resumed", 13.0)]
    assert kernel.fused_wakes == 2
    assert len(kernel.events) == 0


# ----------------------------------------------------------------------
# the chain: a CPU burst that starts the I/O it carries
# ----------------------------------------------------------------------
def recording_steps(kernel):
    """Log every process step (``run`` aliases ``_resume`` when it
    starts, ``wake`` looks it up per call)."""
    steps = []
    resume = kernel._resume

    def recording(process, value, exc):
        steps.append((kernel.now, process.name))
        resume(process, value, exc)

    kernel._resume = recording
    return steps


def cpu_then_io(kernel, cpu, device, log, name, chained, cpu_time=1.0,
                io_time=2.0):
    """One object access, as one chained syscall or as two yields."""
    def body():
        if chained:
            yield cpu.use(cpu_time, device.use(io_time))
        else:
            yield cpu.use(cpu_time)
            yield device.use(io_time)
        log.append((name, kernel.now))

    return body()


def test_a_quiet_chained_completion_starts_the_io_without_a_step():
    kernel = Kernel()
    cpu, io = CPU(kernel), ParallelIO(kernel)
    steps = recording_steps(kernel)
    log = []
    kernel.spawn(cpu_then_io(kernel, cpu, io, log, "p", True), "p")
    kernel.run()
    assert log == [("p", 3.0)]
    assert steps == [(0.0, "p"), (3.0, "p")]  # nothing at t=1
    # The follow-on started in place, and the I/O expiry fused.
    assert kernel.fused_wakes == 2
    assert dispatched(kernel) == 3 and io.requests == 1


@pytest.mark.parametrize("chained", [True, False])
@pytest.mark.parametrize("fuses", [True, False])
def test_a_tied_chained_completion_queues_the_start_in_the_resume_slot(
        chained, fuses):
    # Mutant: the follow-on started in place on a tied instant.  At t=1
    # the burst ends together with ``arm2``, which schedules ``late``
    # at t=3; the I/O expiry p's resume would have scheduled comes
    # after it, so ``late`` fires first.
    kernel = Kernel()
    kernel.fuses_wakes = fuses
    cpu, io = CPU(kernel), ParallelIO(kernel)
    log = []
    kernel.spawn(cpu_then_io(kernel, cpu, io, log, "p", chained), "p")

    def arm2():
        kernel.at(3.0, lambda: log.append(("late", kernel.now)))

    kernel.at(0.0, lambda: kernel.at(1.0, arm2))
    kernel.run()
    assert log == [("late", 3.0), ("p", 3.0)]
    # Only the I/O expiry fuses, after ``late``: the same count and
    # the same events whether the I/O was chained or yielded.
    assert kernel.fused_wakes == (1 if fuses else 0)
    assert kernel.events.queue_stats() == (0, 7 if fuses else 8, 0)


def test_then_starts_the_next_job_before_the_follow_on():
    # Mutant: the follow-on applied before ``then()``.  When hi's burst
    # ends, lo's job must be dispatched (its completion scheduled for
    # t=2) before hi's I/O, also due at t=2, is started.
    kernel = Kernel()
    cpu, io = CPU(kernel), ParallelIO(kernel)
    log = []
    kernel.spawn(cpu_then_io(kernel, cpu, io, log, "hi", True,
                             io_time=1.0), "hi", priority=2)

    def lo_body():
        yield cpu.use(1.0)
        log.append(("lo", kernel.now))

    kernel.spawn(lo_body(), "lo", priority=1)
    kernel.run()
    assert log == [("lo", 2.0), ("hi", 2.0)]
    assert kernel.fused_wakes == 1  # hi's chain; t=2 is a tie


@pytest.mark.parametrize("at, holder", [
    (0.5, "_Job"), (1.0, "_start_follow"), (2.0, "wake")],
    ids=["cpu", "queued-start", "io"])
def test_an_interrupt_withdraws_whichever_phase_holds_the_process(
        at, holder):
    # The interrupt at t=1 is queued behind the burst's completion, so
    # that instant is tied and the start waits in the resume's slot.
    kernel = Kernel()
    cpu, io = CPU(kernel), ParallelIO(kernel)
    log = []

    def body():
        try:
            yield cpu.use(1.0, io.use(2.0))
            log.append("done")
        except Stop:
            log.append(("stopped", kernel.now))

    process = kernel.spawn(body(), "p")
    seen = []

    def stop():
        blocker = process.blocker
        callback = getattr(blocker, "callback", None)
        seen.append(type(blocker).__name__ if callback is None else
                    getattr(callback, "func", callback).__name__)
        kernel.interrupt(process, Stop())

    kernel.at(0.0, lambda: kernel.at(at, stop))
    kernel.run()
    assert seen == [holder]
    assert log == [("stopped", at)]
    # The I/O never starts unless it already held the process.
    assert io.requests == (1 if holder == "wake" else 0)
    assert cpu.busy_time == pytest.approx(min(at, 1.0))
    assert kernel.events._dead == 0 and len(kernel.events) == 0
    assert kernel.events.queue_stats()[2] == 1  # the one withdrawal


def test_a_zero_cpu_burst_applies_its_follow_on_at_once():
    kernel = Kernel()
    cpu, io = CPU(kernel), ParallelIO(kernel)
    log = []

    def body():
        yield cpu.use(0.0, io.use(2.0))
        log.append(kernel.now)
        yield cpu.use(0.0, io.use(0.0))
        log.append(kernel.now)

    kernel.spawn(body(), "p")
    kernel.run()
    assert log == [2.0, 2.0]
    assert io.requests == 2 and cpu.busy_time == 0.0
    assert dispatched(kernel) == 2  # the spawn and the I/O expiry


@pytest.mark.parametrize("fuses", [True, False])
def test_a_disk_follow_on_takes_the_generic_start(fuses):
    # A bounded DiskArray is no pure delay: the chain applies its
    # request, queueing included, exactly as the process would have.
    def run(chained):
        kernel = Kernel()
        kernel.fuses_wakes = fuses
        cpu, disks = CPU(kernel, policy="fifo"), DiskArray(kernel)
        log = []
        for name in ("a", "b", "c"):
            kernel.spawn(cpu_then_io(kernel, cpu, disks, log, name,
                                     chained), name)
        kernel.run()
        return log, disks.requests, kernel.events.queue_stats()

    chained = run(True)
    assert chained == run(False)
    assert chained[0] == [("a", 3.0), ("b", 5.0), ("c", 7.0)]
    assert chained[1] == 3
