"""Deadline timers: firing, cancellation, races with completion."""

from repro.kernel import Delay, DeadlineTimer, Kernel, ProcessInterrupt


class Expired(ProcessInterrupt):
    pass


def test_timer_interrupts_at_deadline():
    kernel = Kernel()
    outcome = []

    def body():
        try:
            yield Delay(100.0)
        except Expired:
            outcome.append(kernel.now)

    process = kernel.spawn(body(), "p")
    timer = DeadlineTimer(kernel, process, 8.0, lambda: Expired("late"))
    kernel.run()
    assert outcome == [8.0]
    assert timer.fired


def test_cancelled_timer_never_fires():
    kernel = Kernel()
    outcome = []

    def body():
        yield Delay(3.0)
        outcome.append("finished")

    process = kernel.spawn(body(), "p")
    timer = DeadlineTimer(kernel, process, 10.0, lambda: Expired())
    timer.cancel()
    kernel.run()
    assert outcome == ["finished"]
    assert not timer.fired


def test_timer_firing_after_termination_is_noop():
    kernel = Kernel()

    def body():
        yield Delay(1.0)

    process = kernel.spawn(body(), "p")
    DeadlineTimer(kernel, process, 5.0, lambda: Expired())
    kernel.run()  # process finished at 1.0, timer fires at 5.0 harmlessly
    assert process.terminated
    assert process.exception is None


def test_past_deadline_fires_at_current_instant():
    kernel = Kernel()
    outcome = []

    def body():
        yield Delay(5.0)
        # Arm a timer whose deadline is already past.
        DeadlineTimer(kernel, me, 2.0, lambda: Expired("past"))
        try:
            yield Delay(100.0)
        except Expired:
            outcome.append(kernel.now)

    me = kernel.spawn(body(), "p")
    kernel.run()
    assert outcome == [5.0]


def test_cancel_after_fire_is_safe():
    kernel = Kernel()

    def body():
        try:
            yield Delay(100.0)
        except Expired:
            pass

    process = kernel.spawn(body(), "p")
    timer = DeadlineTimer(kernel, process, 2.0, lambda: Expired())
    kernel.run()
    timer.cancel()  # no error
    assert timer.fired


def test_armed_property():
    kernel = Kernel()

    def body():
        yield Delay(10.0)

    process = kernel.spawn(body(), "p")
    timer = DeadlineTimer(kernel, process, 5.0, lambda: Expired())
    assert timer.armed
    timer.cancel()
    assert not timer.armed
