"""Global ceiling manager: server behaviour and TM interaction details."""

import pytest

from repro.cc import PriorityCeiling
from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.db.locks import LockMode
from repro.dist import DistributedSystem
from repro.dist.global_ceiling import CEILING_SERVICE, ceiling_manager
from repro.dist.message import (AbortTxn, LockGrant, LockRequest,
                                RegisterTxn, ReleaseAndDeregister)
from repro.dist.network import Network
from repro.dist.site import Site
from repro.txn import CostModel
from repro.txn.generator import TransactionSpec
from tests.conftest import make_txn


def manager_rig(kernel, delay=0.0):
    network = Network(kernel, 2, delay)
    sites = [Site(kernel, site_id, 10, network) for site_id in range(2)]
    cc = PriorityCeiling(kernel)
    kernel.spawn(ceiling_manager(sites[0], cc), "gcm",
                 priority=float("inf"))
    return sites, cc


def test_register_is_acknowledged(kernel):
    sites, cc = manager_rig(kernel)
    txn = make_txn([(1, "w")], priority=5)
    txn.process = kernel.spawn(_noop(), "tm", priority=5)
    results = []

    def client():
        reply = sites[1].make_reply_port("c")
        sites[1].send(0, RegisterTxn(target=CEILING_SERVICE,
                                     sender_site=1, txn=txn,
                                     reply_to=reply.address))
        ack = yield reply.receive()
        results.append(ack.tag)

    kernel.spawn(client(), "client")
    kernel.run(until=5.0)
    assert results == ["registered"]
    assert cc.active[txn.tid] is txn


def _noop():
    from repro.kernel import Delay
    yield Delay(1000.0)


def test_lock_request_granted_immediately_when_free(kernel):
    sites, cc = manager_rig(kernel)
    txn = make_txn([(1, "w")], priority=5)
    txn.process = kernel.spawn(_noop(), "tm", priority=5)
    grants = []

    def client():
        reply = sites[1].make_reply_port("c")
        sites[1].send(0, RegisterTxn(target=CEILING_SERVICE,
                                     sender_site=1, txn=txn,
                                     reply_to=reply.address))
        yield reply.receive()
        sites[1].send(0, LockRequest(target=CEILING_SERVICE,
                                     sender_site=1, txn=txn, oid=1,
                                     mode=LockMode.WRITE,
                                     reply_to=reply.address))
        grant = yield reply.receive()
        grants.append(grant)

    kernel.spawn(client(), "client")
    kernel.run(until=5.0)
    assert len(grants) == 1
    assert isinstance(grants[0], LockGrant)
    assert cc.locks.mode_held(1, txn) is LockMode.WRITE


def test_blocked_request_granted_after_release(kernel):
    sites, cc = manager_rig(kernel)
    holder = make_txn([(1, "w")], priority=5)
    holder.process = kernel.spawn(_noop(), "tm1", priority=5)
    waiter = make_txn([(1, "w")], priority=4)
    waiter.process = kernel.spawn(_noop(), "tm2", priority=4)
    cc.register(holder)
    cc.register(waiter)
    cc.locks.grant(1, holder, LockMode.WRITE)
    events = []

    def client():
        from repro.kernel import Delay
        reply = sites[1].make_reply_port("w")
        sites[1].send(0, LockRequest(target=CEILING_SERVICE,
                                     sender_site=1, txn=waiter, oid=1,
                                     mode=LockMode.WRITE,
                                     reply_to=reply.address))
        grant = yield reply.receive()
        events.append(("granted", kernel.now))

    def releaser():
        from repro.kernel import Delay
        yield Delay(6.0)
        sites[0].send(0, ReleaseAndDeregister(target=CEILING_SERVICE,
                                              sender_site=0, txn=holder))

    kernel.spawn(client(), "client")
    kernel.spawn(releaser(), "releaser")
    kernel.run(until=20.0)
    assert events == [("granted", 6.0)]


def test_abort_cancels_pending_request_and_frees_locks(kernel):
    sites, cc = manager_rig(kernel)
    holder = make_txn([(1, "w")], priority=5)
    holder.process = kernel.spawn(_noop(), "tm1", priority=5)
    waiter = make_txn([(1, "w"), (2, "w")], priority=4)
    waiter.process = kernel.spawn(_noop(), "tm2", priority=4)
    kernel.run(until=0.5)  # let the manager register its service port
    cc.register(holder)
    cc.register(waiter)
    cc.locks.grant(1, holder, LockMode.WRITE)
    cc.locks.grant(2, waiter, LockMode.WRITE)
    granted = cc.acquire_async(waiter, 1, LockMode.WRITE,
                               on_grant=lambda: None)
    assert granted is False
    sites[0].send(0, AbortTxn(target=CEILING_SERVICE, sender_site=0,
                              txn=waiter))
    kernel.run(until=5.0)
    assert cc.waiting_count == 0
    assert not cc.locks.is_locked(2)       # waiter's lock released
    assert cc.locks.is_locked(1)           # holder unaffected
    assert waiter.tid not in cc.active


def test_remote_data_round_trips_extend_global_commit_latency():
    """An update transaction whose reads are remote pays data round
    trips; measured commit latency grows linearly with delay.
    (Generated updates write home primaries only, so no 2PC here.)"""
    def run_one(delay):
        config = DistributedConfig(
            mode="global", comm_delay=delay, db_size=60, seed=11,
            workload=WorkloadConfig(n_transactions=12,
                                    mean_interarrival=50.0,
                                    transaction_size=4, size_jitter=1,
                                    read_only_fraction=0.0,
                                    write_fraction=0.5),
            timing=TimingConfig(slack_factor=100.0),
            costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))
        system = DistributedSystem(config)
        monitor = system.run()
        assert monitor.committed == 12  # huge slack: nothing misses
        return monitor.mean_response_time()

    assert run_one(0.0) < run_one(2.0) < run_one(5.0)


@pytest.mark.parametrize("delay", (1.0, 3.0))
def test_2pc_round_trips_extend_global_commit_latency(delay):
    """A one-object transaction at a non-manager site pays two round
    trips (register, lock); a remote object adds the data round trip;
    a remote *write* adds prepare + decide on top of that."""
    def latency(oid_site, mode):
        config = DistributedConfig(
            mode="global", comm_delay=delay, db_size=6, seed=1,
            workload=WorkloadConfig(n_transactions=1,
                                    transaction_size=1),
            timing=TimingConfig(slack_factor=1000.0),
            costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))
        system = DistributedSystem(config, schedule=[])
        oid = system.catalog.primaries_at(oid_site)[0]
        spec = TransactionSpec(0.0, ((oid, mode),), site=1)
        system.kernel.at(0.0, lambda: system._admit(spec))
        monitor = system.run()
        assert monitor.committed == 1
        return monitor.mean_response_time(), system.network.messages_sent

    round_trip = 2 * delay
    home_write, home_messages = latency(1, LockMode.WRITE)
    remote_read, read_messages = latency(2, LockMode.READ)
    remote_write, write_messages = latency(2, LockMode.WRITE)
    assert home_write == 2 * round_trip + 1.0
    assert remote_read == home_write + round_trip
    assert remote_write == remote_read + 2 * round_trip
    # register, lock (2 each) + one-way release; data; prepare, decide.
    assert (home_messages, read_messages, write_messages) == (5, 7, 11)
