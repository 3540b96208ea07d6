"""Network: delays, link overrides, delivery ordering."""

import pytest

from repro.dist.message import Message
from repro.dist.network import Network
from repro.kernel import Kernel, Port
from repro.kernel.hooks import Hooks


def wire(kernel, n_sites, delay):
    network = Network(kernel, n_sites, delay)
    inboxes = []
    for site in range(n_sites):
        inbox = Port(kernel, f"inbox-{site}")
        network.attach_inbox(site, inbox)
        inboxes.append(inbox)
    return network, inboxes


def test_validation():
    with pytest.raises(ValueError):
        Network(Kernel(), 0, 1.0)
    with pytest.raises(ValueError):
        Network(Kernel(), 2, -1.0)


def test_send_delivers_after_delay():
    kernel = Kernel()
    network, inboxes = wire(kernel, 2, delay=3.0)
    got = []

    def receiver():
        message = yield inboxes[1].receive()
        got.append((kernel.now, message.target))

    kernel.spawn(receiver(), "r")
    network.send(1, Message(target="svc", sender_site=0))
    kernel.run()
    assert got == [(3.0, "svc")]


def test_zero_delay_delivers_immediately():
    kernel = Kernel()
    network, inboxes = wire(kernel, 2, delay=0.0)
    network.send(1, Message(target="svc", sender_site=0))
    assert inboxes[1].queued == 1


def test_local_send_is_immediate():
    kernel = Kernel()
    network, inboxes = wire(kernel, 2, delay=5.0)
    network.send(0, Message(target="svc", sender_site=0))
    assert inboxes[0].queued == 1


def test_fifo_order_preserved_per_link():
    kernel = Kernel()
    network, inboxes = wire(kernel, 2, delay=2.0)
    got = []

    def receiver():
        for __ in range(3):
            message = yield inboxes[1].receive()
            got.append(message.target)

    kernel.spawn(receiver(), "r")
    for index in range(3):
        network.send(1, Message(target=f"m{index}", sender_site=0))
    kernel.run()
    assert got == ["m0", "m1", "m2"]


def test_send_to_unknown_site_rejected():
    kernel = Kernel()
    network, __ = wire(kernel, 2, delay=1.0)
    with pytest.raises(ValueError):
        network.send(5, Message(target="svc", sender_site=0))


def test_send_without_inbox_rejected():
    kernel = Kernel()
    network = Network(kernel, 2, 1.0)
    with pytest.raises(RuntimeError, match="inbox"):
        network.send(1, Message(target="svc", sender_site=0))


def test_message_counter():
    kernel = Kernel()
    network, __ = wire(kernel, 2, delay=1.0)
    network.send(1, Message(target="a", sender_site=0))
    network.send(1, Message(target="b", sender_site=0))
    assert network.messages_sent == 2


class _Route:
    """An injector stand-in: every message arrives twice, the copy
    late by ``jitter``."""

    def __init__(self, jitter):
        self.jitter = jitter

    def route(self, src, dst, delay):
        return (delay, delay + self.jitter)


def test_injected_fates_each_arrive_at_their_own_lag():
    kernel = Kernel()
    network, inboxes = wire(kernel, 2, delay=2.0)
    network.attach_injector(_Route(jitter=1.5))
    got = []

    def receiver():
        for __ in range(2):
            message = yield inboxes[1].receive()
            got.append((kernel.now, message.target))

    kernel.spawn(receiver(), "r")
    network.send(1, Message(target="svc", sender_site=0))
    kernel.run()
    assert got == [(2.0, "svc"), (3.5, "svc")]
    assert network.messages_sent == 1


class _Drops:
    def __init__(self):
        self.drops = []

    def msg_drop(self, now, dst, message, reason):
        self.drops.append((now, dst, message.target, reason))


def test_site_down_in_flight_loses_the_message_at_delivery():
    recorder = _Drops()
    kernel = Kernel(hooks=Hooks((recorder,)))
    network, inboxes = wire(kernel, 2, delay=3.0)
    network.send(1, Message(target="svc", sender_site=0))
    kernel.at(1.0, lambda: network.set_site_operational(1, False))
    kernel.run(until=2.0)
    # Down while in flight, but the loss is decided when it lands.
    assert network.messages_lost == 0
    kernel.run()
    assert network.messages_lost == 1
    assert recorder.drops == [(3.0, 1, "svc", "site-down")]
    assert inboxes[1].queued == 0
