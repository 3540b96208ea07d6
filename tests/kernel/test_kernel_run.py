"""Kernel: process lifecycle, run loop, interrupts."""

import pytest

from repro.kernel import (Delay, InvalidProcessState, Kernel,
                          ProcessInterrupt, ProcessState, SysCall)
from repro.kernel.errors import SimulationOver


def test_spawn_requires_generator():
    kernel = Kernel()

    def not_a_generator():
        return 42

    with pytest.raises(TypeError, match="generator"):
        kernel.spawn(not_a_generator, "bad")


def test_delay_advances_virtual_time():
    kernel = Kernel()
    seen = []

    def body():
        yield Delay(5.0)
        seen.append(kernel.now)
        yield Delay(2.5)
        seen.append(kernel.now)

    kernel.spawn(body(), "p")
    kernel.run()
    assert seen == [5.0, 7.5]


def test_zero_delay_continues_in_same_instant():
    kernel = Kernel()
    seen = []

    def body():
        yield Delay(0)
        seen.append(kernel.now)

    kernel.spawn(body(), "p")
    kernel.run()
    assert seen == [0.0]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_run_until_stops_at_horizon():
    kernel = Kernel()
    seen = []

    def body():
        yield Delay(10.0)
        seen.append("too late")

    kernel.spawn(body(), "p")
    final = kernel.run(until=4.0)
    assert final == 4.0
    assert seen == []
    # The event is still pending; continuing finishes it.
    kernel.run()
    assert seen == ["too late"]


def test_run_returns_final_time():
    kernel = Kernel()

    def body():
        yield Delay(3.0)

    kernel.spawn(body(), "p")
    assert kernel.run() == 3.0


class Refused(SysCall):
    """A request its own kernel refuses (a lock request that makes the
    requester the deadlock victim fails the same way)."""

    def apply(self, kernel, process):
        raise InvalidProcessState("refused")


def test_a_syscall_error_is_delivered_at_the_yield_point():
    kernel = Kernel()
    errors = []

    def body():
        try:
            yield Refused()
        except InvalidProcessState:
            errors.append("caught")

    kernel.spawn(body(), "loner")
    kernel.run()
    # The error is delivered at the yield point, where the body caught it.
    assert errors == ["caught"]


def test_unhandled_kernel_error_crashes_the_run():
    kernel = Kernel()

    def body():
        yield Refused()  # raises InvalidProcessState, not handled

    kernel.spawn(body(), "loner")
    with pytest.raises(InvalidProcessState):
        kernel.run()


def test_interrupt_during_delay():
    kernel = Kernel()
    seen = []

    def victim_body():
        try:
            yield Delay(100.0)
            seen.append("finished")
        except ProcessInterrupt as interrupt:
            seen.append(("interrupted", kernel.now, interrupt.cause))

    victim = kernel.spawn(victim_body(), "victim")
    kernel.at(3.0, lambda: kernel.interrupt(victim,
                                            ProcessInterrupt("stop")))
    kernel.run()
    assert seen == [("interrupted", 3.0, "stop")]


def test_interrupt_terminated_process_is_noop():
    kernel = Kernel()

    def body():
        yield Delay(1.0)

    process = kernel.spawn(body(), "p")
    kernel.run()
    assert process.terminated
    assert kernel.interrupt(process, ProcessInterrupt("late")) is False


def test_unhandled_interrupt_terminates_process_cleanly():
    kernel = Kernel()

    def body():
        yield Delay(100.0)

    process = kernel.spawn(body(), "p")
    kernel.at(1.0, lambda: kernel.interrupt(process,
                                            ProcessInterrupt("kill")))
    kernel.run()
    assert process.terminated
    assert isinstance(process.exception, ProcessInterrupt)


def test_yielding_non_syscall_raises_type_error():
    kernel = Kernel()

    def body():
        yield 42

    kernel.spawn(body(), "bad")
    with pytest.raises(TypeError, match="must yield SysCall"):
        kernel.run()


def test_run_not_reentrant():
    kernel = Kernel()

    def body():
        kernel.run()
        yield Delay(1.0)

    kernel.spawn(body(), "evil")
    with pytest.raises(SimulationOver):
        kernel.run()


def test_step_dispatches_one_event():
    kernel = Kernel()
    seen = []

    def body():
        yield Delay(1.0)
        seen.append("a")
        yield Delay(1.0)
        seen.append("b")

    kernel.spawn(body(), "p")
    assert kernel.step() is True  # initial resume (blocks on Delay)
    assert seen == []
    # Nothing else is due at t=1, so the delay wake-up and the step it
    # causes are one event: the body runs to its next block.
    assert kernel.step() is True
    assert seen == ["a"]
    kernel.run()
    assert seen == ["a", "b"]
    assert kernel.step() is False


def test_process_states_progress():
    kernel = Kernel()

    def body():
        yield Delay(1.0)

    process = kernel.spawn(body(), "p")
    assert process.state is ProcessState.READY
    kernel.step()  # starts, blocks on delay
    assert process.state is ProcessState.BLOCKED
    kernel.run()
    assert process.state is ProcessState.TERMINATED


def test_at_rejects_past_times():
    kernel = Kernel()

    def body():
        yield Delay(5.0)

    kernel.spawn(body(), "p")
    kernel.run()
    with pytest.raises(ValueError, match="past"):
        kernel.at(1.0, lambda: None)
