"""Ports: async send, rendezvous, timeouts, closing."""

import pytest

from repro.kernel import Delay, Kernel, Port, PortClosed, Timeout


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


def test_rendezvous_send_blocks_until_received():
    kernel = Kernel()
    port = Port(kernel, "p")
    events = []

    def sender():
        yield port.send_sync("data")
        events.append(("sent", kernel.now))

    def receiver():
        yield Delay(6.0)
        message = yield port.receive()
        events.append(("received", message, kernel.now))

    kernel.spawn(sender(), "s")
    kernel.spawn(receiver(), "r")
    kernel.run()
    assert ("received", "data", 6.0) in events
    assert ("sent", 6.0) in events


def test_rendezvous_send_to_waiting_receiver_is_immediate():
    kernel = Kernel()
    port = Port(kernel, "p")
    events = []

    def receiver():
        message = yield port.receive()
        events.append(("received", message, kernel.now))

    def sender():
        yield Delay(2.0)
        yield port.send_sync("x")
        events.append(("sent", kernel.now))

    kernel.spawn(receiver(), "r")
    kernel.spawn(sender(), "s")
    kernel.run()
    assert ("received", "x", 2.0) in events
    assert ("sent", 2.0) in events


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


def test_try_receive_nonblocking():
    kernel = Kernel()
    port = Port(kernel, "p")
    assert port.try_receive() == (False, None)
    port.send("m")
    assert port.try_receive() == (True, "m")


def test_try_receive_unblocks_rendezvous_sender():
    kernel = Kernel()
    port = Port(kernel, "p")
    events = []

    def sender():
        yield port.send_sync("payload")
        events.append("sender-done")

    def poller():
        yield Delay(1.0)
        ok, message = port.try_receive()
        events.append((ok, message))

    kernel.spawn(sender(), "s")
    kernel.spawn(poller(), "p")
    kernel.run()
    assert (True, "payload") in events
    assert "sender-done" in events


def test_closed_port_rejects_send_and_receive():
    kernel = Kernel()
    port = Port(kernel, "p")
    port.close()
    with pytest.raises(PortClosed):
        port.send("m")
    failures = []

    def receiver():
        try:
            yield port.receive()
        except PortClosed:
            failures.append("receive")

    kernel.spawn(receiver(), "r")
    kernel.run()
    assert failures == ["receive"]


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


def test_close_wakes_parked_receiver_with_port_closed():
    # Regression: close() only set a flag, so a receiver parked before
    # it stayed BLOCKED forever.
    kernel = Kernel()
    port = Port(kernel, "p")
    outcome = []

    def receiver():
        try:
            yield port.receive(timeout=50.0)
            outcome.append("message")
        except PortClosed:
            outcome.append(("closed", kernel.now))

    process = kernel.spawn(receiver(), "r")
    kernel.at(1.0, port.close)
    kernel.run()
    assert outcome == [("closed", 1.0)]
    assert process.terminated
    assert port.waiting_receivers == 0
    # The receive timeout was disarmed, not left to fire at t=50.
    assert len(kernel.events) == 0 and kernel.now == 1.0


def test_close_wakes_parked_rendezvous_sender_with_port_closed():
    kernel = Kernel()
    port = Port(kernel, "p")
    outcome = []

    def sender():
        try:
            yield port.send_sync("m")
            outcome.append("delivered")
        except PortClosed:
            outcome.append(("closed", kernel.now))

    process = kernel.spawn(sender(), "s")
    kernel.at(2.0, port.close)
    kernel.run()
    assert outcome == [("closed", 2.0)]
    assert process.terminated


def test_close_from_a_parked_waiters_own_cleanup_schedules_nothing():
    # A run abandoned with the owner still parked: finalising its
    # generator runs `finally: port.close()` while it sits in the
    # receiver queue.  There is nobody to deliver PortClosed to.
    kernel = Kernel()
    port = Port(kernel, "reply")

    def owner():
        try:
            yield port.receive()
        finally:
            port.close()

    process = kernel.spawn(owner(), "owner")
    kernel.run()
    assert port.waiting_receivers == 1
    process.generator.close()
    assert port.closed and port.waiting_receivers == 0
    assert len(kernel.events) == 0


def test_negative_receive_timeout_rejected_at_the_call_site():
    port = Port(Kernel(), "p")
    with pytest.raises(ValueError, match="timeout"):
        port.receive(timeout=-1.0)
    port.receive(timeout=0.0)  # zero is a legal (immediate) timeout


def test_closed_port_raises_from_send_receive_and_send_sync():
    kernel = Kernel()
    port = Port(kernel, "p")
    port.close()
    with pytest.raises(PortClosed):
        port.send("m")
    failures = []

    def caller(make_call, label):
        try:
            yield make_call()
        except PortClosed:
            failures.append(label)

    kernel.spawn(caller(port.receive, "receive"), "r")
    kernel.spawn(caller(lambda: port.send_sync("m"), "send_sync"), "s")
    kernel.run()
    assert failures == ["receive", "send_sync"]
    assert port.queued == 0 and port.waiting_receivers == 0


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
