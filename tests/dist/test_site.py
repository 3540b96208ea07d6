"""Sites: service plumbing, reply ports, local-vs-remote routing."""

from repro.cc import PriorityCeiling
from repro.db.locks import LockMode
from repro.dist.message import Ack
from repro.dist.network import Network
from repro.dist.site import Site
from repro.kernel import Delay
from repro.kernel.syscalls import DONE
from tests.conftest import make_txn


def build_sites(kernel, n=2, delay=2.0, db_size=10):
    network = Network(kernel, n, delay)
    return [Site(kernel, site_id, db_size, network) for site_id in
            range(n)], network


def test_sites_own_cpu_database_and_ms(kernel):
    sites, __ = build_sites(kernel)
    assert sites[0].cpu is not sites[1].cpu
    assert sites[0].database is not sites[1].database
    assert len(sites[0].database) == 10


def test_local_send_bypasses_network(kernel):
    sites, network = build_sites(kernel, delay=5.0)
    port = sites[0].register_service("svc")
    sites[0].send(0, Ack(target="svc", sender_site=0, tag="local"))
    # Delivered synchronously, no network message.
    assert port.queued == 1
    assert network.messages_sent == 0


def test_remote_send_goes_through_ms_with_delay(kernel):
    sites, network = build_sites(kernel, delay=5.0)
    port = sites[1].register_service("svc")
    got = []

    def service():
        message = yield port.receive()
        got.append((kernel.now, message.tag))

    kernel.spawn(service(), "svc")
    sites[0].send(1, Ack(target="svc", sender_site=0, tag="remote"))
    kernel.run()
    assert got == [(5.0, "remote")]
    assert network.messages_sent == 1


def test_local_send_to_missing_service_counted(kernel):
    sites, __ = build_sites(kernel)
    sites[0].send(0, Ack(target="ghost", sender_site=0))
    assert sites[0].registry.undeliverable == 1


def test_reply_ports_unique_and_addressable(kernel):
    sites, __ = build_sites(kernel)
    first = sites[0].make_reply_port("txn1")
    second = sites[0].make_reply_port("txn1")
    assert first.name != second.name
    assert first.address[0] == 0
    assert sites[0].registry.lookup(first.name) is first.port


def test_reply_port_close_unregisters(kernel):
    sites, __ = build_sites(kernel)
    reply = sites[0].make_reply_port("txn2")
    reply.close()
    assert sites[0].registry.lookup(reply.name) is None
    # Late messages addressed to it are dropped by the MS, not an error.
    sites[0].send(0, Ack(target=reply.name, sender_site=0))
    assert sites[0].registry.undeliverable == 1


def test_reply_round_trip_between_sites(kernel):
    sites, __ = build_sites(kernel, delay=1.5)
    server_port = sites[1].register_service("echo")
    results = []

    def echo_server():
        while True:
            message = yield server_port.receive()
            reply_site, reply_name = message.reply_to
            sites[1].send(reply_site, Ack(target=reply_name,
                                          sender_site=1,
                                          tag=f"echo:{message.txn}"))

    def client():
        from repro.dist.message import RegisterTxn
        reply = sites[0].make_reply_port("client")
        sites[0].send(1, RegisterTxn(target="echo", sender_site=0,
                                     txn="payload",
                                     reply_to=reply.address))
        answer = yield reply.receive()
        results.append((kernel.now, answer.tag))
        reply.close()

    kernel.spawn(echo_server(), "server")
    kernel.spawn(client(), "client")
    kernel.run(until=10.0)
    assert results == [(3.0, "echo:payload")]


def _returns():
    return
    yield


def _parked():
    yield Delay(100.0)


def test_recover_releases_and_deregisters_a_dead_owner(kernel):
    # A kill path that never ran leaves a lock held by a terminated
    # transaction that is still registered: recovery force-releases it
    # and deregisters the transaction; a live owner keeps its lock.
    site = build_sites(kernel)[0][0]
    site.ceiling = cc = PriorityCeiling(kernel)
    dead = make_txn([(1, "w")], priority=1)
    live = make_txn([(2, "w")], priority=2)
    dead.process = kernel.spawn(_returns(), "dead")
    live.process = kernel.spawn(_parked(), "live")
    for txn, oid in ((dead, 1), (live, 2)):
        cc.register(txn)
        assert cc.attempt(kernel, txn.process, txn, oid,
                          LockMode.WRITE) is DONE
    kernel.run(until=1.0)
    assert dead.process.terminated and not live.process.terminated
    site.recover()
    assert not cc.locks.is_locked(1)
    assert cc.locks.locks_of(live.tid) == {2: LockMode.WRITE}
    assert dead.tid not in cc.active
    assert cc.active == {live.tid: live}
