"""Snapshot reads: the §4 multiversion mechanism as a feature."""

import collections
import dataclasses

import pytest

from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.dist import DistributedSystem
from repro.dist.snapshot import SnapshotReader
from repro.kernel.hooks import observing
from repro.txn import CostModel


def snapshot_config(**overrides):
    defaults = dict(
        mode="local", comm_delay=3.0, db_size=60, seed=5,
        workload=WorkloadConfig(n_transactions=80,
                                mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.5),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0),
        temporal_versions=True, snapshot_reads=True)
    defaults.update(overrides)
    return DistributedConfig(**defaults)


def test_config_requires_versions_and_local_mode():
    with pytest.raises(ValueError, match="temporal_versions"):
        dataclasses.replace(snapshot_config(),
                            temporal_versions=False).validate()
    with pytest.raises(ValueError, match="local-mode"):
        dataclasses.replace(snapshot_config(),
                            mode="global").validate()


def test_reader_requires_versions():
    system = DistributedSystem(snapshot_config(), schedule=[])
    with pytest.raises(ValueError):
        SnapshotReader(system.sites, None, 1.0)


def test_snapshot_run_processes_everything():
    system = DistributedSystem(snapshot_config())
    monitor = system.run()
    assert monitor.processed == 80


def test_snapshot_readers_never_block():
    system = DistributedSystem(snapshot_config())
    monitor = system.run()
    readers = [record for record in monitor.records if record.read_only]
    assert readers
    assert all(record.blocked_time == 0.0 for record in readers)


class Lifecycle:
    """Counts the lifecycle hooks each non-applier transaction fires."""

    def __init__(self):
        self.starts = collections.Counter()
        self.ends = collections.Counter()

    def txn_start(self, t, txn, applier=False):
        if not applier:
            self.starts[txn.tid] += 1

    def txn_commit(self, t, txn, applier=False):
        if not applier:
            self.ends[txn.tid] += 1

    def txn_miss(self, t, txn, reason):
        self.ends[txn.tid] += 1


def test_snapshot_readers_fire_their_lifecycle_hooks():
    lifecycle = Lifecycle()
    with observing(lifecycle):
        system = DistributedSystem(snapshot_config())
    monitor = system.run()
    assert any(record.read_only for record in monitor.records)
    once = collections.Counter(record.tid for record in monitor.records)
    assert len(once) == monitor.processed == 80
    assert lifecycle.starts == once
    assert lifecycle.ends == once


def test_snapshot_readers_never_touch_the_lock_table():
    system = DistributedSystem(snapshot_config())
    read_only_grants = []
    for site in system.sites:
        table = site.ceiling.locks
        original = table.grant

        def spy(oid, owner, mode, original=original):
            if getattr(owner, "is_read_only", False):
                read_only_grants.append((oid, owner))
            return original(oid, owner, mode)

        table.grant = spy
    system.run()
    assert read_only_grants == []


def test_snapshot_reads_reduce_misses_vs_locking_readers():
    with_snapshots = DistributedSystem(snapshot_config()).run()
    without = DistributedSystem(
        dataclasses.replace(snapshot_config(),
                            snapshot_reads=False)).run()

    def reader_miss_rate(monitor):
        readers = [r for r in monitor.records if r.read_only]
        return (sum(1 for r in readers if r.missed)
                / max(1, len(readers)))

    assert reader_miss_rate(with_snapshots) <= reader_miss_rate(without)
    # And writers benefit too (readers no longer raise ceilings).
    assert with_snapshots.percent_missed <= without.percent_missed + 2.0


def test_safe_snapshot_time_accounts_for_delay_and_latency():
    system = DistributedSystem(snapshot_config(comm_delay=5.0),
                               schedule=[])
    reader = system.snapshot_reader
    assert reader.observed_apply_horizon() == 5.0  # no applies yet
    system.sites[1].replica_apply_latencies.append(9.0)
    assert reader.observed_apply_horizon() == 9.0
    assert reader.safe_snapshot_time(now=100.0, margin=1.0) == 90.0
    assert reader.safe_snapshot_time(now=3.0) == 0.0  # clamped


def test_consistent_across_sites_at_safe_time():
    system = DistributedSystem(snapshot_config())
    system.run()
    reader = system.snapshot_reader
    safe = reader.safe_snapshot_time(system.kernel.now)
    assert reader.consistent_across_sites(range(system.config.db_size),
                                          safe)


def test_snapshot_read_returns_versions():
    system = DistributedSystem(snapshot_config())
    system.run()
    reader = system.snapshot_reader
    safe = reader.safe_snapshot_time(system.kernel.now)
    result = reader.read(0, [0, 1, 2], safe)
    assert set(result) == {0, 1, 2}
    for version_ts, __ in result.values():
        assert version_ts <= safe
