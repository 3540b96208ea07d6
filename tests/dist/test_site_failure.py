"""Site failure: lost messages and sender time-outs.

"If the receiving site is not operational, a time-out mechanism will
unblock the sender process."
"""

import pytest

from repro.dist.message import Ack, RegisterTxn
from repro.dist.network import Network
from repro.dist.site import Site
from repro.kernel import Timeout


def build(kernel, delay=2.0):
    network = Network(kernel, 2, delay)
    sites = [Site(kernel, site_id, 10, network) for site_id in range(2)]
    return network, sites


def test_sites_start_operational(kernel):
    network, __ = build(kernel)
    assert network.is_operational(0)
    assert network.is_operational(1)


def test_messages_to_down_site_are_lost(kernel):
    network, sites = build(kernel)
    network.set_site_operational(1, False)
    sites[0].send(1, Ack(target="svc", sender_site=0))
    kernel.run(until=10.0)
    assert network.messages_lost == 1
    assert sites[1].message_server.forwarded == 0


def test_crash_loses_in_flight_messages(kernel):
    network, sites = build(kernel, delay=5.0)
    port = sites[1].register_service("svc")
    sites[0].send(1, Ack(target="svc", sender_site=0))
    kernel.at(2.0, lambda: network.set_site_operational(1, False))
    kernel.run(until=10.0)
    # Sent while up, but the site was down at delivery time.
    assert network.messages_lost == 1
    assert port.queued == 0


def test_recovery_restores_delivery(kernel):
    network, sites = build(kernel, delay=1.0)
    port = sites[1].register_service("svc")
    network.set_site_operational(1, False)
    sites[0].send(1, Ack(target="svc", sender_site=0, tag="lost"))
    kernel.at(5.0, lambda: network.set_site_operational(1, True))
    kernel.at(6.0, lambda: sites[0].send(
        1, Ack(target="svc", sender_site=0, tag="delivered")))
    kernel.run(until=10.0)
    assert network.messages_lost == 1
    assert port.queued == 1


def test_sender_timeout_unblocks_on_dead_site(kernel):
    network, sites = build(kernel, delay=1.0)
    network.set_site_operational(1, False)
    outcome = []

    def client():
        reply = sites[0].make_reply_port("c")
        sites[0].send(1, RegisterTxn(target="ceiling", sender_site=0,
                                     txn=None, reply_to=reply.address))
        try:
            yield reply.receive(timeout=8.0)
            outcome.append("replied")
        except Timeout:
            outcome.append(("timed out", kernel.now))
        finally:
            reply.close()

    kernel.spawn(client(), "client")
    kernel.run()
    assert outcome == [("timed out", 8.0)]


def test_down_site_validation(kernel):
    network, __ = build(kernel)
    with pytest.raises(ValueError):
        network.set_site_operational(9, False)
