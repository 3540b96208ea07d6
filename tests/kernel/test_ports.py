"""Ports: async send, blocking receive, timeouts."""

import pytest

from repro.kernel import Delay, Kernel, Port, Timeout


def test_send_buffers_when_no_receiver():
    kernel = Kernel()
    port = Port(kernel, "p")
    port.send("m1")
    port.send("m2")
    assert port.queued == 2
    got = []

    def receiver():
        got.append((yield port.receive()))
        got.append((yield port.receive()))

    kernel.spawn(receiver(), "r")
    kernel.run()
    assert got == ["m1", "m2"]
    assert port.queued == 0


def test_receive_blocks_until_send():
    kernel = Kernel()
    port = Port(kernel, "p")
    got = []

    def receiver():
        message = yield port.receive()
        got.append((kernel.now, message))

    def sender():
        yield Delay(4.0)
        port.send("hello")

    kernel.spawn(receiver(), "r")
    kernel.spawn(sender(), "s")
    kernel.run()
    assert got == [(4.0, "hello")]


def test_messages_delivered_in_fifo_order():
    kernel = Kernel()
    port = Port(kernel, "p")
    got = []

    def sender():
        for index in range(5):
            port.send(index)
            yield Delay(1.0)

    def receiver():
        for __ in range(5):
            got.append((yield port.receive()))

    kernel.spawn(sender(), "s")
    kernel.spawn(receiver(), "r")
    kernel.run()
    assert got == [0, 1, 2, 3, 4]


def test_receive_timeout_raises():
    kernel = Kernel()
    port = Port(kernel, "p")
    outcome = []

    def receiver():
        try:
            yield port.receive(timeout=5.0)
        except Timeout:
            outcome.append(kernel.now)

    kernel.spawn(receiver(), "r")
    kernel.run()
    assert outcome == [5.0]
    assert port.waiting_receivers == 0


def test_a_fired_receive_timeout_is_not_cancelled_again():
    # The timeout event is the one being dispatched when it interrupts
    # the receiver: the withdraw must not count it as a dead entry of
    # a heap it already left.
    kernel = Kernel()
    port = Port(kernel, "p")
    outcome = []

    def receiver():
        for __ in range(3):
            try:
                yield port.receive(timeout=5.0)
            except Timeout:
                outcome.append(kernel.now)

    kernel.spawn(receiver(), "r")
    kernel.run()
    assert outcome == [5.0, 10.0, 15.0]
    assert kernel.events._dead == 0 and len(kernel.events) == 0
    assert kernel.events.queue_stats() == (0, 7, 0)


def test_message_before_timeout_cancels_timer():
    kernel = Kernel()
    port = Port(kernel, "p")
    outcome = []

    def receiver():
        message = yield port.receive(timeout=50.0)
        outcome.append(message)

    def sender():
        yield Delay(1.0)
        port.send("in time")

    kernel.spawn(receiver(), "r")
    kernel.spawn(sender(), "s")
    final = kernel.run()
    assert outcome == ["in time"]
    assert final == 1.0


def test_two_receivers_each_get_one_message():
    kernel = Kernel()
    port = Port(kernel, "p")
    got = []

    def receiver(name):
        message = yield port.receive()
        got.append((name, message))

    kernel.spawn(receiver("r1"), "r1")
    kernel.spawn(receiver("r2"), "r2")

    def sender():
        yield Delay(1.0)
        port.send("a")
        port.send("b")

    kernel.spawn(sender(), "s")
    kernel.run()
    assert sorted(got) == [("r1", "a"), ("r2", "b")]


def test_negative_receive_timeout_rejected_at_the_call_site():
    port = Port(Kernel(), "p")
    with pytest.raises(ValueError, match="timeout"):
        port.receive(timeout=-1.0)
    port.receive(timeout=0.0)  # zero is a legal (immediate) timeout


def test_delivery_disarms_the_receive_timeout():
    kernel = Kernel()
    port = Port(kernel, "p")
    got = []

    def receiver():
        got.append((yield port.receive(timeout=50.0)))
        yield Delay(10.0)

    kernel.spawn(receiver(), "r")
    kernel.at(1.0, lambda: port.send("in time"))
    kernel.run(until=2.0)
    assert got == ["in time"]
    # Only the receiver's own delay is pending: the timer at 50 is dead.
    assert [entry[0] for entry in kernel.events.live_entries()] == [11.0]
    assert len(kernel.events) == 1
