"""DistributedSystem end-to-end: both architectures, invariants."""

import pytest

from repro.core import DistributedConfig, WorkloadConfig, TimingConfig
from repro.dist import DistributedSystem
from repro.txn import CostModel


def small_config(mode, delay=1.0, read_only=0.5, seed=3, n=40,
                 **overrides):
    return DistributedConfig(
        mode=mode, comm_delay=delay, db_size=60, seed=seed,
        workload=WorkloadConfig(n_transactions=n, mean_interarrival=4.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=read_only),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0),
        **overrides)


def test_config_validation():
    with pytest.raises(ValueError):
        DistributedConfig(mode="hybrid").validate()
    with pytest.raises(ValueError):
        DistributedConfig(n_sites=1).validate()
    with pytest.raises(ValueError):
        DistributedConfig(comm_delay=-1).validate()


def test_local_mode_processes_every_transaction():
    system = DistributedSystem(small_config("local"))
    monitor = system.run()
    assert monitor.processed == 40
    assert monitor.committed + monitor.missed == 40


def test_global_mode_processes_every_transaction():
    system = DistributedSystem(small_config("global"))
    monitor = system.run()
    assert monitor.processed == 40


def test_local_mode_sends_replica_updates():
    system = DistributedSystem(small_config("local", read_only=0.0))
    system.run()
    # Every committed update fans out one message per written object to
    # each of the two other sites.
    committed_writes = sum(
        record.size for record in system.monitor.records
        if record.committed)
    assert system.network.messages_sent >= committed_writes


def test_local_mode_replicas_converge_when_quiescent():
    system = DistributedSystem(small_config("local", read_only=0.0))
    system.run()
    # After the run drains (arrivals done, appliers done), every
    # secondary copy matches its primary.
    assert system.max_staleness() == 0.0


def test_local_mode_has_no_lock_messages():
    # R2/R3: all locking is site-local; only ReplicaUpdate messages
    # cross the network.
    from repro.dist.message import ReplicaUpdate

    system = DistributedSystem(small_config("local"))
    seen = []
    original_send = system.network.send

    def spy(dst, message):
        seen.append(message)
        original_send(dst, message)

    system.network.send = spy
    system.run()
    assert seen  # something was propagated
    assert all(isinstance(message, ReplicaUpdate) for message in seen)


def test_global_mode_zero_delay_matches_local_processing():
    # Sanity: with no read-only traffic and delay 0 both modes commit
    # a comparable majority of a light workload.
    local = DistributedSystem(small_config("local", delay=0.0))
    monitor_local = local.run()
    global_ = DistributedSystem(small_config("global", delay=0.0))
    monitor_global = global_.run()
    assert monitor_local.committed >= monitor_global.committed


def test_global_mode_suffers_from_delay():
    fast = DistributedSystem(small_config("global", delay=0.0))
    slow = DistributedSystem(small_config("global", delay=4.0))
    assert fast.run().percent_missed < slow.run().percent_missed


def test_local_mode_insensitive_to_delay():
    fast = DistributedSystem(small_config("local", delay=0.0)).run()
    slow = DistributedSystem(small_config("local", delay=6.0)).run()
    assert abs(fast.percent_missed - slow.percent_missed) < 15.0


def test_same_seed_reproduces_results():
    first = DistributedSystem(small_config("local")).run().summary()
    second = DistributedSystem(small_config("local")).run().summary()
    assert first == second


def test_summary_includes_cc_and_network_stats():
    system = DistributedSystem(small_config("local"))
    system.run()
    row = system.summary()
    assert "messages_sent" in row
    assert "cc_requests" in row
    assert row["processed"] == 40


def test_temporal_versions_record_history():
    system = DistributedSystem(small_config(
        "local", read_only=0.0, temporal_versions=True))
    system.run()
    total_versions = sum(
        store.version_count(oid)
        for store in system.versions
        for oid in range(system.config.db_size))
    assert total_versions > 0


def test_per_site_monitor_split():
    system = DistributedSystem(small_config("local"))
    system.run()
    views = system.monitor.per_site()
    assert set(views) <= {0, 1, 2}
    assert sum(view.processed for view in views.values()) == 40
