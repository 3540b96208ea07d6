"""Clock monotonicity and Process state/priority mechanics."""

import pytest

from repro.kernel import Kernel
from repro.kernel.errors import InvalidProcessState
from repro.kernel.process import Process, ProcessState


def test_clock_starts_at_zero():
    assert Kernel().now == 0.0


def test_clock_advances_forward():
    kernel = Kernel()
    assert kernel.run(until=5.0) == 5.0
    assert kernel.now == 5.0
    kernel.run(until=5.0)  # standing still is allowed
    assert kernel.now == 5.0
    kernel.run(until=3.0)  # an earlier horizon never rewinds
    assert kernel.now == 5.0


def test_clock_rejects_backwards_motion():
    # step() takes the checked path: a queue handing back an event
    # older than the clock is corruption, not a scheduling decision.
    kernel = Kernel()
    kernel.run(until=10.0)
    kernel.events.schedule(9.0, lambda: None)
    with pytest.raises(ValueError, match="backwards"):
        kernel.step()


def _gen():
    yield  # pragma: no cover


def test_effective_priority_defaults_to_base():
    process = Process(_gen(), "p", priority=3.0)
    assert process.effective_priority == 3.0


def test_inheritance_raises_but_never_lowers():
    process = Process(_gen(), "p", priority=3.0)
    assert process.inherit(8.0) is True
    assert process.effective_priority == 8.0
    # Inheriting something below base keeps the base.
    process.inherit(1.0)
    assert process.effective_priority == 3.0


def test_clearing_inheritance_restores_base():
    process = Process(_gen(), "p", priority=3.0)
    process.inherit(8.0)
    assert process.inherit(None) is True
    assert process.effective_priority == 3.0


def test_inherit_reports_whether_effective_changed():
    process = Process(_gen(), "p", priority=5.0)
    assert process.inherit(2.0) is False   # below base: no change
    assert process.inherit(9.0) is True
    assert process.inherit(9.0) is False   # same value again


def test_pids_are_unique_and_increasing():
    # The kernel numbers the processes it spawns, from 1, whatever
    # another kernel in this interpreter has spawned.
    for kernel in (Kernel(), Kernel()):
        first = kernel.spawn(_gen(), "a")
        second = kernel.spawn(_gen(), "b")
        assert (first.pid, second.pid) == (1, 2)
    assert Process(_gen(), "never spawned").pid == 0


def test_check_not_terminated():
    process = Process(_gen(), "p")
    process.check_not_terminated()
    process.state = ProcessState.TERMINATED
    with pytest.raises(InvalidProcessState):
        process.check_not_terminated()


def test_kernel_set_inherited_priority_pokes_blocker():
    kernel = Kernel()
    pokes = []

    class FakeBlocker:
        def withdraw(self, process):
            pass

        def on_priority_change(self, process):
            pokes.append(process.name)

    process = Process(_gen(), "p", priority=1.0)
    process.blocker = FakeBlocker()
    kernel.set_inherited_priority(process, 9.0)
    assert pokes == ["p"]
    # No effective change -> no poke.
    kernel.set_inherited_priority(process, 9.0)
    assert pokes == ["p"]
