"""CPU: preemptive-resume priority service and FCFS mode."""

import pytest

from repro.kernel import Delay, Kernel, ProcessInterrupt
from repro.resources import CPU


def burst(kernel, cpu, log, name, amount, start=0.0):
    def body():
        if start:
            yield Delay(start)
        yield cpu.use(amount)
        log.append((kernel.now, name))

    return body


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="policy"):
        CPU(Kernel(), policy="round-robin")


def test_negative_burst_rejected():
    kernel = Kernel()
    cpu = CPU(kernel)
    with pytest.raises(ValueError):
        cpu.use(-1.0)


def test_zero_burst_completes_immediately():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []
    kernel.spawn(burst(kernel, cpu, log, "z", 0.0)(), "z")
    kernel.run()
    assert log == [(0.0, "z")]


def test_single_job_runs_for_its_burst():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []
    kernel.spawn(burst(kernel, cpu, log, "only", 4.5)(), "only")
    kernel.run()
    assert log == [(4.5, "only")]


def test_higher_priority_served_first():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []
    kernel.spawn(burst(kernel, cpu, log, "lo", 10.0)(), "lo", priority=1)
    kernel.spawn(burst(kernel, cpu, log, "hi", 3.0)(), "hi", priority=9)
    kernel.run()
    assert log == [(3.0, "hi"), (13.0, "lo")]


def test_preemptive_resume_preserves_progress():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []
    # lo runs 0-2 (2 units done), hi preempts 2-5, lo resumes 5-13.
    kernel.spawn(burst(kernel, cpu, log, "lo", 10.0)(), "lo", priority=1)
    kernel.spawn(burst(kernel, cpu, log, "hi", 3.0, start=2.0)(), "hi",
                 priority=9)
    kernel.run()
    assert log == [(5.0, "hi"), (13.0, "lo")]


def test_equal_priority_served_in_arrival_order():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []
    kernel.spawn(burst(kernel, cpu, log, "first", 2.0)(), "a", priority=5)
    kernel.spawn(burst(kernel, cpu, log, "second", 2.0)(), "b", priority=5)
    kernel.run()
    assert log == [(2.0, "first"), (4.0, "second")]


def test_fifo_mode_is_non_preemptive():
    kernel = Kernel()
    cpu = CPU(kernel, policy="fifo")
    log = []
    kernel.spawn(burst(kernel, cpu, log, "lo", 10.0)(), "lo", priority=1)
    kernel.spawn(burst(kernel, cpu, log, "hi", 3.0, start=2.0)(), "hi",
                 priority=9)
    kernel.run()
    # hi arrives at 2 but must wait for lo to finish at 10.
    assert log == [(10.0, "lo"), (13.0, "hi")]


def test_priority_inheritance_triggers_preemption_reevaluation():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []
    kernel.spawn(burst(kernel, cpu, log, "mid", 10.0)(), "mid", priority=5)
    low = kernel.spawn(burst(kernel, cpu, log, "low", 4.0)(), "low",
                       priority=1)
    # At t=2 'low' inherits priority 9 (e.g. it blocks a high-priority
    # transaction): it must preempt 'mid' immediately.
    kernel.at(2.0, lambda: kernel.set_inherited_priority(low, 9.0))
    kernel.run()
    assert log == [(6.0, "low"), (14.0, "mid")]


def test_interrupt_of_running_job_frees_the_cpu():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []

    def victim_body():
        try:
            yield cpu.use(100.0)
        except ProcessInterrupt:
            log.append(("interrupted", kernel.now))

    victim = kernel.spawn(victim_body(), "victim", priority=9)
    kernel.spawn(burst(kernel, cpu, log, "other", 5.0)(), "other",
                 priority=1)
    kernel.at(3.0, lambda: kernel.interrupt(victim,
                                            ProcessInterrupt("die")))
    kernel.run()
    assert ("interrupted", 3.0) in log
    assert (8.0, "other") in log  # other got the CPU for its full burst


def test_interrupt_of_queued_job_leaves_runner_untouched():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []

    def victim_body():
        try:
            yield cpu.use(50.0)
        except ProcessInterrupt:
            log.append(("interrupted", kernel.now))

    kernel.spawn(burst(kernel, cpu, log, "runner", 10.0)(), "runner",
                 priority=9)
    victim = kernel.spawn(victim_body(), "victim", priority=1)
    kernel.at(3.0, lambda: kernel.interrupt(victim,
                                            ProcessInterrupt("die")))
    kernel.run()
    assert log == [("interrupted", 3.0), (10.0, "runner")]


def test_load_and_running_process_introspection():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []
    kernel.spawn(burst(kernel, cpu, log, "a", 5.0)(), "a", priority=2)
    kernel.spawn(burst(kernel, cpu, log, "b", 5.0)(), "b", priority=1)
    kernel.run(until=1.0)
    assert cpu.load == 2
    assert cpu.running_process.name == "a"
    kernel.run()
    assert cpu.load == 0
    assert cpu.running_process is None


def test_utilization_accounts_for_busy_time():
    kernel = Kernel()
    cpu = CPU(kernel)
    log = []
    kernel.spawn(burst(kernel, cpu, log, "a", 4.0)(), "a")

    def idle_then_busy():
        yield Delay(6.0)
        yield cpu.use(2.0)

    kernel.spawn(idle_then_busy(), "b")
    kernel.run()
    # Busy 0-4 and 6-8 over an 8-unit run: utilization 6/8.
    assert cpu.utilization(kernel.now) == pytest.approx(0.75)


def test_double_use_by_same_process_rejected():
    # A process cannot hold two concurrent bursts; this guards against
    # protocol bugs that would double-register a job.
    from repro.kernel.errors import SchedulingError

    kernel = Kernel()
    cpu = CPU(kernel)

    def body():
        yield cpu.use(5.0)

    process = kernel.spawn(body(), "p")
    kernel.run(until=1.0)  # process is mid-burst
    with pytest.raises(SchedulingError, match="already has a job"):
        cpu.use(1.0).apply(kernel, process)
