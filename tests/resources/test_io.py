"""I/O models: infinite-server ParallelIO and bounded DiskArray."""

import pytest

from repro.kernel import Delay, Kernel, ProcessInterrupt
from repro.resources import DiskArray, ParallelIO


def io_job(kernel, device, log, name, amount, start=0.0):
    def body():
        if start:
            yield Delay(start)
        yield device.use(amount)
        log.append((kernel.now, name))

    return body


# ----------------------------------------------------------------------
# ParallelIO
# ----------------------------------------------------------------------
def test_parallel_io_requests_do_not_queue():
    kernel = Kernel()
    io = ParallelIO(kernel)
    log = []
    for index in range(5):
        kernel.spawn(io_job(kernel, io, log, f"j{index}", 4.0)(),
                     f"j{index}")
    kernel.run()
    # All five finish at t=4: true parallelism.
    assert [time for time, __ in log] == [4.0] * 5


def test_parallel_io_zero_burst_immediate():
    kernel = Kernel()
    io = ParallelIO(kernel)
    log = []
    kernel.spawn(io_job(kernel, io, log, "z", 0.0)(), "z")
    kernel.run()
    assert log == [(0.0, "z")]


def test_parallel_io_counts_requests_and_service():
    kernel = Kernel()
    io = ParallelIO(kernel)
    log = []
    kernel.spawn(io_job(kernel, io, log, "a", 2.0)(), "a")
    kernel.spawn(io_job(kernel, io, log, "b", 3.0)(), "b")
    kernel.run()
    assert io.requests == 2
    # Each request is served for exactly its own amount.
    assert log == [(2.0, "a"), (3.0, "b")]


def test_parallel_io_negative_rejected():
    with pytest.raises(ValueError):
        ParallelIO(Kernel()).use(-0.5)


def test_parallel_io_interrupt_cancels_completion():
    kernel = Kernel()
    io = ParallelIO(kernel)
    outcome = []

    def body():
        try:
            yield io.use(100.0)
        except ProcessInterrupt:
            outcome.append(kernel.now)

    process = kernel.spawn(body(), "p")
    kernel.at(2.0, lambda: kernel.interrupt(process,
                                            ProcessInterrupt("stop")))
    final = kernel.run()
    assert outcome == [2.0]
    assert final == 2.0  # the io completion event was cancelled


# ----------------------------------------------------------------------
# DiskArray
# ----------------------------------------------------------------------
def test_disk_array_requires_positive_servers():
    with pytest.raises(ValueError):
        DiskArray(Kernel(), servers=0)


def test_single_disk_serializes_requests():
    kernel = Kernel()
    disks = DiskArray(kernel, servers=1)
    log = []
    kernel.spawn(io_job(kernel, disks, log, "a", 3.0)(), "a")
    kernel.spawn(io_job(kernel, disks, log, "b", 3.0)(), "b")
    kernel.run()
    assert log == [(3.0, "a"), (6.0, "b")]


def test_two_disks_run_two_in_parallel():
    kernel = Kernel()
    disks = DiskArray(kernel, servers=2)
    log = []
    for name in ("a", "b", "c"):
        kernel.spawn(io_job(kernel, disks, log, name, 4.0)(), name)
    kernel.run()
    times = sorted(time for time, __ in log)
    assert times == [4.0, 4.0, 8.0]


def test_disk_queue_is_fifo_by_default():
    kernel = Kernel()
    disks = DiskArray(kernel, servers=1)
    log = []
    for index in range(3):
        kernel.spawn(io_job(kernel, disks, log, f"j{index}", 2.0)(),
                     f"j{index}", priority=float(index))
    kernel.run()
    assert [name for __, name in log] == ["j0", "j1", "j2"]


def test_disk_priority_queue_serves_urgent_first():
    kernel = Kernel()
    disks = DiskArray(kernel, servers=1, policy="priority")
    log = []
    kernel.spawn(io_job(kernel, disks, log, "first", 2.0)(), "first",
                 priority=0.0)
    kernel.spawn(io_job(kernel, disks, log, "low", 2.0)(), "low",
                 priority=1.0)
    kernel.spawn(io_job(kernel, disks, log, "high", 2.0)(), "high",
                 priority=9.0)
    kernel.run()
    # "first" seizes the free disk; then the queue orders high over low.
    assert [name for __, name in log] == ["first", "high", "low"]


def test_disk_interrupt_in_queue_releases_slot():
    kernel = Kernel()
    disks = DiskArray(kernel, servers=1)
    log = []

    def victim_body():
        try:
            yield disks.use(10.0)
        except ProcessInterrupt:
            log.append(("interrupted", kernel.now))

    kernel.spawn(io_job(kernel, disks, log, "runner", 5.0)(), "runner")
    victim = kernel.spawn(victim_body(), "victim")
    kernel.spawn(io_job(kernel, disks, log, "after", 5.0)(), "after")
    kernel.at(1.0, lambda: kernel.interrupt(victim,
                                            ProcessInterrupt("stop")))
    kernel.run()
    assert ("interrupted", 1.0) in log
    assert (10.0, "after") in log  # victim's slot never consumed service


def test_disk_interrupt_in_service_starts_next():
    kernel = Kernel()
    disks = DiskArray(kernel, servers=1)
    log = []

    def victim_body():
        try:
            yield disks.use(100.0)
        except ProcessInterrupt:
            log.append(("interrupted", kernel.now))

    victim = kernel.spawn(victim_body(), "victim")
    kernel.spawn(io_job(kernel, disks, log, "next", 5.0)(), "next")
    kernel.at(2.0, lambda: kernel.interrupt(victim,
                                            ProcessInterrupt("stop")))
    kernel.run()
    assert log == [("interrupted", 2.0), (7.0, "next")]


def test_disk_busy_and_queued_introspection():
    kernel = Kernel()
    disks = DiskArray(kernel, servers=1)
    log = []
    kernel.spawn(io_job(kernel, disks, log, "a", 5.0)(), "a")
    kernel.spawn(io_job(kernel, disks, log, "b", 5.0)(), "b")
    kernel.run(until=1.0)
    assert disks.busy == 1
    assert disks.queued == 1
    kernel.run()
    assert disks.busy == 0
    assert disks.queued == 0
    assert log == [(5.0, "a"), (10.0, "b")]  # b waited 5 units
