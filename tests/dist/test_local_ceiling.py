"""Local ceiling architecture: R1-R3, appliers, staleness semantics."""

import pytest

from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.db.locks import LockMode
from repro.db.replication import ReplicationViolation
from repro.dist import DistributedSystem
from repro.txn import CostModel
from repro.txn.generator import TransactionSpec
from repro.txn.transaction import TransactionType


def light_config(**overrides):
    defaults = dict(
        mode="local", comm_delay=2.0, db_size=60, seed=5,
        workload=WorkloadConfig(n_transactions=10,
                                mean_interarrival=20.0,
                                transaction_size=3,
                                read_only_fraction=0.0),
        timing=TimingConfig(slack_factor=20.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))
    defaults.update(overrides)
    return DistributedConfig(**defaults)


def spec_for(system, site, arrival=1.0, n_objects=2,
             mode=LockMode.WRITE):
    oids = system.catalog.primaries_at(site)[:n_objects]
    return TransactionSpec(arrival,
                           tuple((oid, mode) for oid in oids),
                           site=site,
                           txn_type=(TransactionType.READ_ONLY
                                     if mode is LockMode.READ
                                     else TransactionType.UPDATE))


def test_update_writes_propagate_to_all_secondaries():
    system = DistributedSystem(light_config(), schedule=[])
    spec = spec_for(system, site=1)
    system._admit_at = None
    system.kernel.at(1.0, lambda: system._admit(spec))
    system.run()
    txn = system.monitor.records[0]
    assert txn.committed
    for oid, __ in spec.operations:
        primary_value = system.sites[1].database.object(oid).value
        for site in system.sites:
            assert site.database.object(oid).value == primary_value


def test_r2_violation_rejected():
    system = DistributedSystem(light_config(), schedule=[])
    # Write set owned by site 0, transaction placed at site 1.
    bad_spec = TransactionSpec(
        1.0,
        tuple((oid, LockMode.WRITE)
              for oid in system.catalog.primaries_at(0)[:2]),
        site=1)
    system.kernel.at(1.0, lambda: system._admit(bad_spec))
    with pytest.raises(ReplicationViolation):
        system.run()


def test_commit_happens_before_propagation():
    # R3: the transaction's finish time precedes every secondary-copy
    # update (which lags by at least the communication delay).
    system = DistributedSystem(light_config(comm_delay=4.0), schedule=[])
    spec = spec_for(system, site=0)
    system.kernel.at(1.0, lambda: system._admit(spec))
    system.run()
    record = system.monitor.records[0]
    oid = spec.operations[0][0]
    for site in (1, 2):
        copy_ts = system.catalog.copy_timestamp(site, oid)
        assert copy_ts == record.finish_time  # value stamped at commit
    # Propagation completed after commit + delay: run end time proves it.
    assert system.kernel.now >= record.finish_time + 4.0


def test_stale_reads_are_possible_before_propagation():
    # A reader at another site between commit and apply sees the old
    # value - the paper's temporal inconsistency.
    system = DistributedSystem(light_config(comm_delay=10.0), schedule=[])
    update = spec_for(system, site=0, n_objects=1)
    oid = update.operations[0][0]
    observed = []

    def reader():
        from repro.kernel import Delay
        yield Delay(6.0)  # after commit (~2), before apply (~12+)
        observed.append(system.sites[1].database.object(oid).value)
        yield Delay(20.0)
        observed.append(system.sites[1].database.object(oid).value)

    system.kernel.at(1.0, lambda: system._admit(update))
    system.kernel.spawn(reader(), "reader")
    system.run()
    assert observed[0] == 0.0            # stale secondary
    assert observed[1] != 0.0            # converged afterwards


def test_applier_respects_last_writer_wins():
    # Two sequential updates to the same object from its primary site:
    # replicas must end at the newest timestamp even though messages
    # could interleave.
    system = DistributedSystem(light_config(comm_delay=3.0), schedule=[])
    first = spec_for(system, site=0, n_objects=1)
    oid = first.operations[0][0]
    second = TransactionSpec(8.0, ((oid, LockMode.WRITE),), site=0)
    system.kernel.at(1.0, lambda: system._admit(first))
    system.kernel.at(8.0, lambda: system._admit(second))
    system.run()
    newest = system.sites[0].database.object(oid).version_ts
    for site in (1, 2):
        assert system.sites[site].database.object(oid).version_ts == \
            newest


def test_read_only_transactions_never_generate_messages():
    system = DistributedSystem(light_config(), schedule=[])
    spec = spec_for(system, site=2, mode=LockMode.READ)
    system.kernel.at(1.0, lambda: system._admit(spec))
    system.run()
    assert system.monitor.records[0].committed
    assert system.network.messages_sent == 0


def test_applier_contention_blocks_local_readers_briefly():
    # While an applier write-locks a secondary copy, a local reader of
    # that copy waits: replication consumes real concurrency.
    config = light_config(comm_delay=1.0,
                          costs=CostModel(cpu_per_object=1.0,
                                          io_per_object=0.0,
                                          apply_cpu=5.0))
    system = DistributedSystem(config, schedule=[])
    update = spec_for(system, site=0, n_objects=1)
    oid = update.operations[0][0]
    reader_spec = TransactionSpec(3.5, ((oid, LockMode.READ),), site=1,
                                  txn_type=TransactionType.READ_ONLY)
    system.kernel.at(1.0, lambda: system._admit(update))
    system.kernel.at(3.5, lambda: system._admit(reader_spec))
    system.run()
    reader_record = [record for record in system.monitor.records
                     if record.read_only][0]
    assert reader_record.committed
    assert reader_record.blocked_time > 0.0
