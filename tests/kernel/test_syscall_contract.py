"""What the typed, closure-free syscall path must not lose.

Blocking operations are small ``SysCall`` subclasses whose ``apply`` is
the operation, and the kernel's resume loop tests results by identity
first.  These tests pin every check that survived the flattening —
each raises the same exception type, at the same place, as the
closure-based path did — plus the new properties the typed form adds
(reusable requests, lazy labels) and the order equivalence of the
lambda-free ``CPU._select``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import (BLOCKED, Call, Delay, Immediate, Kernel, Port,
                          ProcessInterrupt, ProcessState, SysCall)
from repro.kernel.errors import InvalidProcessState, SchedulingError
from repro.kernel.process import Process
from repro.resources import CPU, DiskArray, ParallelIO


def scheduled(kernel):
    """Events ever scheduled on ``kernel`` (live + dispatched + dead)."""
    live, dispatched, cancelled = kernel.events.queue_stats()
    return live + dispatched + cancelled


# ----------------------------------------------------------------------
# the resume loop's type and state checks
# ----------------------------------------------------------------------
def test_yielding_a_non_syscall_is_a_type_error():
    kernel = Kernel()

    def body():
        yield "not a syscall"

    kernel.spawn(body(), "bad")
    with pytest.raises(TypeError, match="must yield SysCall"):
        kernel.run()


def test_blocked_without_a_blocker_is_an_invalid_state():
    class Forgetful(SysCall):
        def apply(self, kernel, process):
            return BLOCKED  # parked nowhere: nothing could ever wake it

    kernel = Kernel()

    def body():
        yield Forgetful()

    kernel.spawn(body(), "p")
    with pytest.raises(InvalidProcessState, match="without registering"):
        kernel.run()


@pytest.mark.parametrize("garbage", [None, 7, "done", (1, 2)])
def test_garbage_apply_result_is_a_type_error(garbage):
    class Sloppy(SysCall):
        def apply(self, kernel, process):
            return garbage

    kernel = Kernel()

    def body():
        yield Sloppy()

    kernel.spawn(body(), "p")
    with pytest.raises(TypeError, match="Sloppy returned"):
        kernel.run()


def test_call_stays_the_extension_point_and_boxes_plain_values():
    kernel = Kernel()
    seen = []

    def body():
        seen.append((yield Call(lambda kernel, process: 41 + 1)))
        seen.append((yield Call(lambda kernel, process: Immediate("x"))))

    kernel.spawn(body(), "p")
    kernel.run()
    assert seen == [42, "x"]


# ----------------------------------------------------------------------
# argument validation happens where the request is built
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build", [
    lambda kernel: Delay(-1.0),
    lambda kernel: CPU(kernel).use(-1.0),
    lambda kernel: ParallelIO(kernel).use(-1.0),
    lambda kernel: DiskArray(kernel).use(-1.0),
    lambda kernel: Port(kernel).receive(timeout=-1.0),
], ids=["delay", "cpu", "io", "disk", "receive"])
def test_negative_amounts_raise_value_error_at_the_call_site(build):
    with pytest.raises(ValueError):
        build(Kernel())


@pytest.mark.parametrize("build", [
    lambda kernel: Delay(0.0),
    lambda kernel: CPU(kernel).use(0.0),
    lambda kernel: ParallelIO(kernel).use(0.0),
    lambda kernel: DiskArray(kernel).use(0.0),
], ids=["delay", "cpu", "io", "disk"])
def test_zero_amount_completes_in_the_same_instant_without_an_event(build):
    kernel = Kernel()
    request = build(kernel)
    log = []

    def body():
        yield Delay(2.0)
        before = scheduled(kernel)
        yield request
        log.append((kernel.now, scheduled(kernel) - before))

    kernel.spawn(body(), "p")
    kernel.run()
    assert log == [(2.0, 0)]


# ----------------------------------------------------------------------
# re-entrancy guard and interrupt cleanup
# ----------------------------------------------------------------------
def test_second_cpu_burst_by_a_parked_process_is_a_scheduling_error():
    kernel = Kernel()
    cpu = CPU(kernel)

    def body():
        yield cpu.use(5.0)

    process = kernel.spawn(body(), "p")
    kernel.run(until=1.0)
    with pytest.raises(SchedulingError, match="already has a job"):
        cpu.use(1.0).apply(kernel, process)
    assert cpu.load == 1


class Stop(ProcessInterrupt):
    pass


@pytest.mark.parametrize("make", [
    lambda kernel: (None, Delay(10.0)),
    lambda kernel: (lambda cpu: cpu.load, CPU(kernel)),
    lambda kernel: (None, ParallelIO(kernel)),
    lambda kernel: (lambda disks: disks.busy, DiskArray(kernel)),
], ids=["delay", "cpu", "io", "disk"])
def test_interrupt_mid_burst_withdraws_the_request(make):
    kernel = Kernel()
    occupancy, target = make(kernel)
    request = target if isinstance(target, SysCall) else target.use(10.0)
    log = []

    def body():
        try:
            yield request
            log.append("finished")
        except Stop:
            log.append(("stopped", kernel.now))

    process = kernel.spawn(body(), "p")
    kernel.at(3.0, lambda: kernel.interrupt(process, Stop()))
    assert kernel.run() == 3.0  # the t=10 wake-up was cancelled
    assert log == [("stopped", 3.0)]
    assert process.blocker is None
    assert len(kernel.events) == 0
    if occupancy is not None:
        assert occupancy(target) == 0


def test_interrupted_cpu_burst_hands_the_cpu_to_the_next_job():
    kernel = Kernel()
    cpu = CPU(kernel)
    done = []

    def body(name, amount):
        try:
            yield cpu.use(amount)
            done.append((name, kernel.now))
        except Stop:
            pass

    hi = kernel.spawn(body("hi", 10.0), "hi", priority=9)
    kernel.spawn(body("lo", 2.0), "lo", priority=1)
    kernel.at(4.0, lambda: kernel.interrupt(hi, Stop()))
    kernel.run()
    assert done == [("lo", 6.0)]
    assert cpu.busy_time == pytest.approx(6.0)


# ----------------------------------------------------------------------
# what the typed form adds
# ----------------------------------------------------------------------
def test_a_request_only_describes_so_it_can_be_yielded_repeatedly():
    kernel = Kernel()
    cpu = CPU(kernel)
    io = ParallelIO(kernel)
    log = []

    def body():
        cpu_burst, io_burst, nap = cpu.use(1.0), io.use(2.0), Delay(0.5)
        for __ in range(3):
            yield cpu_burst
            yield io_burst
            yield nap
            log.append(kernel.now)

    kernel.spawn(body(), "p")
    kernel.run()
    assert log == [3.5, 7.0, 10.5]
    assert io.requests == 3 and cpu.busy_time == pytest.approx(3.0)


def test_labels_are_formatted_on_demand_in_the_legacy_spelling():
    from repro.cc.twopl import TwoPhaseLocking
    from repro.db.locks import LockMode
    from repro.txn.transaction import Transaction

    kernel = Kernel()
    cc = TwoPhaseLocking(kernel)
    txn = Transaction(operations=[(3, LockMode.WRITE)], arrival_time=0.0,
                      deadline=9.0, priority=1.0, tid=1)
    assert CPU(kernel, name="c0").use(1.0).label == "cpu(c0)"
    assert ParallelIO(kernel, name="io0").use(1.0).label == "io(io0)"
    assert DiskArray(kernel, name="d0").use(1.0).label == "disk(d0)"
    assert Port(kernel, "inbox").receive().label == "receive(inbox)"
    assert (cc.acquire(txn, 3, LockMode.WRITE).label
            == f"lock(3,{LockMode.WRITE})")
    assert Call(lambda kernel, process: None).label == "call"


# ----------------------------------------------------------------------
# CPU._select against the historical max/min-with-key selection
# ----------------------------------------------------------------------
def historical_select(cpu):
    """``CPU._select`` as it was before the one-pass scan."""
    if not cpu._jobs:
        return None
    if cpu.policy == "fifo":
        if cpu._running is not None:
            return cpu._running
        return min(cpu._jobs.values(), key=lambda job: job.seq)
    return max(cpu._jobs.values(),
               key=lambda job: (job.process.effective_priority, -job.seq))


def _idle():
    yield  # pragma: no cover


#: Few distinct priorities so ties — the case the arrival order decides
#: — are the norm, not the exception.
PRIORITIES = st.sampled_from([1.0, 2.0, 3.0])
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("use"), st.integers(0, 5), PRIORITIES),
    st.tuples(st.just("withdraw"), st.integers(0, 5), PRIORITIES),
    st.tuples(st.just("complete"), st.integers(0, 5), PRIORITIES),
    st.tuples(st.just("inherit"), st.integers(0, 5),
              st.one_of(st.none(), PRIORITIES)),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(policy=st.sampled_from(["priority", "fifo"]),
       base=st.lists(PRIORITIES, min_size=6, max_size=6),
       operations=OPERATIONS)
def test_select_matches_the_historical_keyed_selection(policy, base,
                                                       operations):
    kernel = Kernel()
    cpu = CPU(kernel, policy=policy)
    processes = [Process(_idle(), f"p{i}", priority)
                 for i, priority in enumerate(base)]
    for kind, index, value in operations:
        process = processes[index]
        if kind == "use":
            if process not in cpu._jobs:
                cpu.use(value).apply(kernel, process)
                process.state = ProcessState.BLOCKED
        elif kind == "withdraw":
            if process in cpu._jobs:
                process.blocker.withdraw(process)
                process.blocker = None
        elif kind == "complete":
            if cpu._running is not None:
                cpu._complete()
        else:
            kernel.set_inherited_priority(process, value)
        assert cpu._select() is historical_select(cpu)
        # Every mutation above ends in a reschedule, so the running
        # job is always the selected one.
        assert cpu._running is cpu._select()
