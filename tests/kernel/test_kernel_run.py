"""Kernel: process lifecycle, run loop, interrupts, joins."""

import pytest

from repro.kernel import (Delay, InvalidProcessState, Join, Kernel, Now,
                          ProcessInterrupt, ProcessState, Spawn)
from repro.kernel.errors import SimulationOver
from repro.kernel.hooks import Hooks


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


def test_process_return_value_via_join():
    kernel = Kernel()
    results = []

    def child():
        yield Delay(1.0)
        return "child-result"

    def parent():
        process = yield Spawn(child(), "child")
        value = yield Join(process)
        results.append((kernel.now, value))

    kernel.spawn(parent(), "parent")
    kernel.run()
    assert results == [(1.0, "child-result")]


def test_join_on_terminated_process_returns_immediately():
    kernel = Kernel()
    results = []

    def child():
        yield Delay(0)
        return 7

    def parent():
        process = yield Spawn(child(), "child")
        yield Delay(5.0)  # child long done
        value = yield Join(process)
        results.append(value)

    kernel.spawn(parent(), "parent")
    kernel.run()
    assert results == [7]


def test_join_self_rejected():
    kernel = Kernel()
    errors = []

    def body():
        try:
            yield Join(me)
        except InvalidProcessState:
            errors.append("caught")

    me = kernel.spawn(body(), "loner")
    kernel.run()
    # The error is delivered at the yield point, where the body caught it.
    assert errors == ["caught"]


def test_unhandled_kernel_error_crashes_the_run():
    kernel = Kernel()

    def body():
        yield Join(me)  # raises InvalidProcessState, not handled

    me = kernel.spawn(body(), "loner")
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


def test_join_reraises_child_interrupt():
    kernel = Kernel()
    caught = []

    def child_body():
        yield Delay(50.0)

    def parent():
        try:
            yield Join(child)
        except ProcessInterrupt as interrupt:
            caught.append(interrupt.cause)

    child = kernel.spawn(child_body(), "child")
    kernel.spawn(parent(), "parent")
    kernel.at(2.0, lambda: kernel.interrupt(child,
                                            ProcessInterrupt("boom")))
    kernel.run()
    assert caught == ["boom"]


def test_now_syscall():
    kernel = Kernel()
    seen = []

    def body():
        yield Delay(4.0)
        now = yield Now()
        seen.append(now)

    kernel.spawn(body(), "p")
    kernel.run()
    assert seen == [4.0]


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


def test_trace_hook_receives_lifecycle_events():
    events = []

    class Subscriber:
        def kernel_event(self, now, kind, process, detail):
            events.append((now, kind, process.name))

    kernel = Kernel(hooks=Hooks((Subscriber(),)))

    def body():
        yield Delay(2.0)

    victim = kernel.spawn(body(), "traced")
    kernel.at(1.0, lambda: kernel.interrupt(victim,
                                            ProcessInterrupt("stop")))
    kernel.run()
    assert events == [(0.0, "spawn", "traced"),
                      (1.0, "interrupt", "traced"),
                      (1.0, "terminate", "traced")]


def test_at_rejects_past_times():
    kernel = Kernel()

    def body():
        yield Delay(5.0)

    kernel.spawn(body(), "p")
    kernel.run()
    with pytest.raises(ValueError, match="past"):
        kernel.at(1.0, lambda: None)
