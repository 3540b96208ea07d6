"""Distributed end-to-end invariants, some under the sanitizer."""

import pytest

from repro.analyze.sanitizer import sanitize
from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.dist import DistributedSystem
from repro.txn import CostModel


def config(mode, delay=2.0, seed=17, n=60, **overrides):
    defaults = dict(
        mode=mode, comm_delay=delay, db_size=90, seed=seed,
        workload=WorkloadConfig(n_transactions=n, mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.4),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))
    defaults.update(overrides)
    return DistributedConfig(**defaults)


@pytest.mark.parametrize("mode", ("local", "global"))
def test_no_locks_leak_after_the_run(mode):
    system = DistributedSystem(config(mode))
    system.run()
    assert system.ccs
    for cc in system.ccs.values():
        assert len(cc.locks) == 0
        assert cc.waiting_count == 0
        assert not cc.active


def audited_violations(config):
    """Violations of one run under a recording sanitizer (a kernel
    samples the activation when it is built)."""
    with sanitize(strict=False) as sanitizer:
        system = DistributedSystem(config)
        # Committed transactions took locks: the checkers saw grants.
        assert system.run().committed > 0
    return sanitizer.violations


def test_global_mode_lock_discipline_audited():
    assert audited_violations(config("global")) == []


def test_global_mode_ceiling_rule_audited():
    assert audited_violations(config("global", delay=0.0)) == []


def test_local_mode_ceiling_rule_audited_per_site():
    assert audited_violations(config("local")) == []


def test_global_mode_message_accounting():
    system = DistributedSystem(config("global"))
    system.run()
    # Every transaction at a non-manager site needs at least a
    # registration message; the MS forwarded (or deliberately dropped)
    # every network message.
    remote_txns = sum(1 for record in system.monitor.records
                      if record.site != system.config.gcm_site)
    assert system.network.messages_sent >= remote_txns
    forwarded = sum(site.message_server.forwarded
                    for site in system.sites)
    dropped = sum(site.message_server.dropped for site in system.sites)
    assert forwarded + dropped == system.network.messages_sent


def test_global_mode_dropped_messages_only_from_dead_transactions():
    # Grants/replies racing an abort are dropped by the MS; a system
    # with no misses must drop nothing.
    generous = config("global", delay=0.0,
                      timing=TimingConfig(slack_factor=100.0))
    system = DistributedSystem(generous)
    monitor = system.run()
    if monitor.missed == 0:
        assert sum(site.message_server.dropped
                   for site in system.sites) == 0


@pytest.mark.parametrize("mode", ("local", "global"))
def test_committed_transactions_met_their_deadlines(mode):
    system = DistributedSystem(config(mode))
    monitor = system.run()
    for record in monitor.records:
        if record.committed:
            assert record.finish_time <= record.deadline + 1e-9
        else:
            assert record.finish_time == pytest.approx(record.deadline)


def test_update_values_identical_across_sites_when_quiescent():
    system = DistributedSystem(config("local",
                                      workload=WorkloadConfig(
                                          n_transactions=50,
                                          mean_interarrival=4.0,
                                          transaction_size=3,
                                          read_only_fraction=0.0)))
    system.run()
    for oid in range(system.config.db_size):
        values = {site.database.object(oid).value
                  for site in system.sites}
        assert len(values) == 1, f"divergent copies of oid {oid}"


def test_monitor_counts_match_config():
    for mode in ("local", "global"):
        system = DistributedSystem(config(mode))
        monitor = system.run()
        assert monitor.processed == 60
        sites_seen = {record.site for record in monitor.records}
        assert sites_seen <= {0, 1, 2}
