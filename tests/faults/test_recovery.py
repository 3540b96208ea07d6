"""Crash/recovery integration: both architectures survive faults.

The acceptance bar: with message loss and site crashes the run still
terminates (no hung kernel), every transaction is accounted for, and
after recovery the system converges.
"""

import pytest

from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.dist import DistributedSystem
from repro.faults import FaultPlan, SiteCrash
from repro.txn import CostModel

N = 60


def fault_config(mode, faults, read_only=0.5, seed=11):
    return DistributedConfig(
        mode=mode, comm_delay=1.0, db_size=60, seed=seed,
        workload=WorkloadConfig(n_transactions=N,
                                mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=read_only),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0),
        faults=faults)


MID_RUN_CRASH = FaultPlan(crashes=(
    SiteCrash(site=1, at=40.0, down_for=30.0),))


def run_to_completion(config):
    system = DistributedSystem(config)
    monitor = system.run()
    # Accounting is airtight: every generated transaction produced a
    # record (committed, missed, killed or refused) and nothing is
    # still in flight once the kernel drained.
    assert monitor.processed == N
    assert monitor.committed + monitor.missed == N
    assert not system._inflight
    return system, monitor


# ----------------------------------------------------------------------
# local architecture
# ----------------------------------------------------------------------
def test_local_mode_survives_a_site_crash():
    system, __ = run_to_completion(
        fault_config("local", MID_RUN_CRASH, read_only=0.0))
    stats = system.degradation
    assert stats.crashes == 1
    assert stats.recoveries == 1
    # The crash actually hurt someone: work was killed on the dead
    # site, arrivals were refused while down, or queued messages died.
    assert (stats.killed_by_crash + stats.rejected_at_down_site
            + stats.purged_messages) >= 1
    assert stats.downtime(1, system.kernel.now) >= 30.0


def test_local_replicas_converge_after_crash_recovery():
    # No loss: the only damage is the outage itself, and anti-entropy
    # at recovery plus courier retries must heal every secondary.
    system, __ = run_to_completion(
        fault_config("local", MID_RUN_CRASH, read_only=0.0))
    assert system.max_staleness() == 0.0


def test_local_mode_deduplicates_under_heavy_duplication():
    system, __ = run_to_completion(
        fault_config("local", FaultPlan(duplicate_rate=0.3),
                     read_only=0.0))
    stats = system.degradation
    assert stats.messages_duplicated > 0
    assert stats.duplicates_suppressed > 0
    # At-least-once + dedup still yields exactly-once installs.
    assert system.max_staleness() == 0.0


# ----------------------------------------------------------------------
# global architecture
# ----------------------------------------------------------------------
def test_global_mode_survives_a_participant_crash():
    system, __ = run_to_completion(fault_config("global",
                                                MID_RUN_CRASH))
    stats = system.degradation
    assert stats.crashes == 1
    assert stats.recoveries == 1
    assert (stats.killed_by_crash + stats.rejected_at_down_site
            + stats.purged_messages) >= 1


def test_global_mode_survives_a_gcm_site_crash():
    # The hardest case: the site hosting the global ceiling manager
    # goes down.  Its protocol state is stable storage; every remote
    # exchange against it rides timeouts, so the run still terminates
    # with all transactions accounted for.
    plan = FaultPlan(crashes=(SiteCrash(site=0, at=40.0,
                                        down_for=30.0),))
    system, monitor = run_to_completion(fault_config("global", plan))
    assert system.config.gcm_site == 0
    assert system.degradation.recoveries == 1
    # Some transactions survived the outage overall.
    assert monitor.committed > 0


# ----------------------------------------------------------------------
# the acceptance scenario: loss 0.1 + one crash per site
# ----------------------------------------------------------------------
ACCEPTANCE = FaultPlan(loss_rate=0.1, crashes=(
    SiteCrash(site=0, at=30.0, down_for=20.0),
    SiteCrash(site=1, at=60.0, down_for=20.0),
    SiteCrash(site=2, at=90.0, down_for=20.0)))


@pytest.mark.parametrize("mode", ["local", "global"])
def test_lossy_network_with_one_crash_per_site(mode):
    system, monitor = run_to_completion(fault_config(mode, ACCEPTANCE))
    stats = system.degradation
    assert stats.crashes == 3
    assert stats.recoveries == 3
    assert stats.messages_dropped > 0
    summary = system.summary()
    assert summary["messages_lost"] > 0
    assert 0.0 < summary["fault_availability"] < 1.0
    assert monitor.committed > 0           # the system degraded, not died


@pytest.mark.parametrize("mode", ["local", "global"])
def test_faulted_summary_is_reproducible(mode):
    def once():
        system, __ = run_to_completion(fault_config(mode, ACCEPTANCE))
        return system.summary()

    assert once() == once()
