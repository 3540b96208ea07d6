"""Semaphores: counting, blocking, priority wakeup, timeouts."""

import pytest

from repro.kernel import Delay, Kernel, Semaphore, Timeout


def test_initial_count_allows_immediate_wait():
    kernel = Kernel()
    sem = Semaphore(kernel, initial=2)
    done = []

    def body(name):
        yield sem.wait()
        done.append((kernel.now, name))

    kernel.spawn(body("a"), "a")
    kernel.spawn(body("b"), "b")
    kernel.run()
    assert done == [(0.0, "a"), (0.0, "b")]
    assert sem.count == 0


def test_negative_initial_rejected():
    with pytest.raises(ValueError):
        Semaphore(Kernel(), initial=-1)


def test_wait_blocks_until_signal():
    kernel = Kernel()
    sem = Semaphore(kernel)
    done = []

    def waiter():
        yield sem.wait()
        done.append(kernel.now)

    def signaller():
        yield Delay(7.0)
        sem.signal()

    kernel.spawn(waiter(), "w")
    kernel.spawn(signaller(), "s")
    kernel.run()
    assert done == [7.0]


def test_signal_without_waiter_increments_count():
    kernel = Kernel()
    sem = Semaphore(kernel)
    sem.signal()
    sem.signal()
    assert sem.count == 2


def test_fifo_wakeup_order():
    kernel = Kernel()
    sem = Semaphore(kernel, policy="fifo")
    order = []

    def waiter(name, delay):
        yield Delay(delay)
        yield sem.wait()
        order.append(name)

    kernel.spawn(waiter("first", 0.0), "first")
    kernel.spawn(waiter("second", 1.0), "second")

    def signaller():
        yield Delay(5.0)
        sem.signal()
        sem.signal()

    kernel.spawn(signaller(), "s")
    kernel.run()
    assert order == ["first", "second"]


def test_priority_wakeup_order():
    kernel = Kernel()
    sem = Semaphore(kernel, policy="priority")
    order = []

    def waiter(name):
        yield sem.wait()
        order.append(name)

    kernel.spawn(waiter("low"), "low", priority=1.0)
    kernel.spawn(waiter("high"), "high", priority=9.0)

    def signaller():
        yield Delay(1.0)
        sem.signal()
        sem.signal()

    kernel.spawn(signaller(), "s")
    kernel.run()
    assert order == ["high", "low"]


def test_wait_timeout_raises_inside_waiter():
    kernel = Kernel()
    sem = Semaphore(kernel)
    outcome = []

    def waiter():
        try:
            yield sem.wait(timeout=3.0)
            outcome.append("got it")
        except Timeout:
            outcome.append(("timeout", kernel.now))

    kernel.spawn(waiter(), "w")
    kernel.run()
    assert outcome == [("timeout", 3.0)]
    assert sem.waiting == 0


def test_signal_before_timeout_cancels_timer():
    kernel = Kernel()
    sem = Semaphore(kernel)
    outcome = []

    def waiter():
        yield sem.wait(timeout=10.0)
        outcome.append(("signalled", kernel.now))

    def signaller():
        yield Delay(2.0)
        sem.signal()

    kernel.spawn(waiter(), "w")
    kernel.spawn(signaller(), "s")
    final = kernel.run()
    assert outcome == [("signalled", 2.0)]
    assert final == 2.0  # timeout event was cancelled, queue drained


def test_mutex_protocol_excludes_concurrent_critical_sections():
    kernel = Kernel()
    mutex = Semaphore(kernel, initial=1)
    inside = []
    overlap = []

    def worker(name):
        yield mutex.wait()
        inside.append(name)
        if len(inside) > 1:
            overlap.append(tuple(inside))
        yield Delay(5.0)
        inside.remove(name)
        mutex.signal()

    for index in range(3):
        kernel.spawn(worker(f"w{index}"), f"w{index}")
    kernel.run()
    assert overlap == []
    assert kernel.now == 15.0  # three serialized 5-unit sections


def test_waiting_count_tracks_blocked_processes():
    kernel = Kernel()
    sem = Semaphore(kernel)

    def waiter():
        yield sem.wait()

    kernel.spawn(waiter(), "w1")
    kernel.spawn(waiter(), "w2")
    kernel.run(until=0.5)
    assert sem.waiting == 2
    sem.signal()
    kernel.run(until=1.0)
    assert sem.waiting == 1


def test_negative_wait_timeout_rejected_at_the_call_site():
    sem = Semaphore(Kernel())
    with pytest.raises(ValueError, match="timeout"):
        sem.wait(timeout=-0.5)
    sem.wait(timeout=0.0)  # zero is a legal (immediate) timeout
