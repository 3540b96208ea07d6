"""Crash/recovery integration: both architectures survive faults.

The acceptance bar: with message loss and site crashes the run still
terminates (no hung kernel), every transaction is accounted for, and
after recovery the system converges.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.bench import distributed_config
from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.db.locks import LockMode
from repro.db.replication import ReplicaCatalog
from repro.dist import DistributedSystem
from repro.faults import FaultPlan, SiteCrash, load_plan
from repro.kernel.hooks import observing
from repro.telemetry import metering
from repro.trace import tracing
from repro.txn import CostModel
from repro.txn.generator import TransactionSpec

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
    assert sorted(system.ccs) == [0]
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


# ----------------------------------------------------------------------
# two-phase commit under faults: remote writers by hand
# ----------------------------------------------------------------------
# Generated updates write home primaries only (R2 holds in the
# generator for both modes), so no workload above ever has a 2PC
# participant.  These schedules do: the `dist-global-2x2` shape of
# `repro verify` on three sites, every written object written by one
# transaction so "installed" is readable off the final value.
def remote_writers(faults, slack_factor=40.0, seed=11):
    config = DistributedConfig(
        mode="global", n_sites=3, comm_delay=1.0, db_size=6, seed=seed,
        workload=WorkloadConfig(n_transactions=3, transaction_size=3),
        timing=TimingConfig(slack_factor=slack_factor),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0),
        faults=faults)
    at = ReplicaCatalog(6, 3).primaries_at
    write, read = LockMode.WRITE, LockMode.READ
    schedule = [
        TransactionSpec(0.0, ((at(1)[0], write), (at(2)[0], write),
                              (at(0)[0], read)), site=0),
        TransactionSpec(0.0, ((at(2)[1], write), (at(1)[0], read)),
                        site=1),
        TransactionSpec(1.0, ((at(0)[1], write), (at(1)[1], write)),
                        site=2),
    ]
    return DistributedSystem(config, schedule=schedule)


class Coordinators(dict):
    """tid -> the last 2PC phase its coordinator reached ("prepare",
    "commit" or "abort" once decided, "done" once every participant
    acknowledged), from the ``two_pc`` hook."""

    def two_pc(self, now, txn, phase, participants, commit=None):
        if phase == "decide":
            phase = "commit" if commit else "abort"
        self[txn.tid] = phase


@pytest.fixture
def coordinators():
    """Every 2PC coordinator of the systems the test builds."""
    recorded = Coordinators()
    with observing(recorded):
        yield recorded


def check_two_phase_commit(system, coordinators):
    """Atomicity and termination, whatever the faults did."""
    system.run()
    assert not system._inflight
    records = {txn.tid: txn for txn in system.monitor.records}
    assert sorted(records) == [1, 2, 3]
    decided = {tid: phase for tid, phase in coordinators.items()
               if phase in ("commit", "done")}
    for txn in records.values():
        # Admitted in schedule order, numbered from 1.
        remote = [oid for oid, mode in system.schedule[txn.tid - 1]
                  .operations if mode is LockMode.WRITE
                  and system.catalog.primary_site(oid) != txn.site]
        assert remote                      # every writer is remote
        for oid in remote:
            home = system.catalog.primary_site(oid)
            value = system.sites[home].database.object(oid).value
            # Every participant installs iff the coordinator decided
            # commit (a vote is always yes in this model).
            assert (value == float(txn.tid)) == (txn.tid in decided), (
                txn, oid)
        if txn.committed:
            assert decided[txn.tid] == "done"
    for tid, phase in coordinators.items():
        assert phase == "done" or records[tid].missed
    # Nothing outlives the run: every courier terminated with its ack,
    # and no private reply port is left registered.
    assert system.degradation.courier_failures == 0
    for site in system.sites:
        assert all(process.terminated for process in site.resident)
        assert not [name for name in site.registry._services
                    if name.startswith("reply-")]
    return decided, records


@pytest.mark.parametrize("seed", range(4))
def test_two_phase_commit_is_atomic_under_message_loss(seed,
                                                       coordinators):
    system = remote_writers(FaultPlan(loss_rate=0.25), seed=seed)
    # Across the seeds a writer commits late, misses before it ever
    # prepares, and misses with its Prepare out and no vote in.
    decided, __ = check_two_phase_commit(system, coordinators)
    assert decided
    assert system.degradation.messages_dropped > 0


@pytest.mark.parametrize("seed", range(4))
def test_two_phase_commit_is_atomic_under_duplication(seed,
                                                      coordinators):
    system = remote_writers(FaultPlan(duplicate_rate=0.5), seed=seed)
    decided, records = check_two_phase_commit(system, coordinators)
    assert len(decided) == 3
    assert all(txn.committed for txn in records.values())
    assert system.degradation.messages_duplicated > 0
    # Repeated Prepares re-vote and repeated Decides only re-ack:
    # the coordinator drops them as stale.
    assert system.degradation.stale_replies > 0


# The first writer's Decides leave site 0 at t=8 and land at t=9;
# site 2 is down from 8.5 to 18.5, so its copy of the decision is lost
# after it voted.
PARTICIPANT_CRASH = FaultPlan(crashes=(
    SiteCrash(site=2, at=8.5, down_for=10.0),))


def test_coordinator_re_asks_a_participant_that_crashed_in_doubt(
        coordinators):
    system = remote_writers(PARTICIPANT_CRASH)
    __, records = check_two_phase_commit(system, coordinators)
    assert records[1].committed
    assert records[1].finish_time > 18.5   # waited out the outage
    assert system.degradation.rpc_retries > 0


def test_in_doubt_participants_learn_commit_after_the_deadline(
        coordinators):
    # Same crash, but the deadline (t=12) strikes while site 2 is
    # still down: the transaction is scored missed, and the decision
    # it had already taken reaches both participants by courier.
    system = remote_writers(PARTICIPANT_CRASH, slack_factor=4.0)
    decided, records = check_two_phase_commit(system, coordinators)
    assert records[1].missed
    assert decided[1] == "commit"
    assert system.degradation.courier_retries > 0


def test_a_retried_commit_shows_in_the_trace_and_the_metrics(
        coordinators):
    # Both 2PC rounds are one `gather` exchange each to an observer;
    # the re-asked participant is a retry, the outage a timeout.
    with tracing() as tracer, metering() as registry:
        system = remote_writers(PARTICIPANT_CRASH)
        check_two_phase_commit(system, coordinators)
    gathers = [(event.kind, event.data["label"], event.data["dst"])
               for event in tracer.events
               if event.tid == 1 and event.kind.startswith("rpc_")
               and event.data["label"].startswith("gather:")]
    assert gathers == [("rpc_begin", "gather:Prepare", -1),
                       ("rpc_end", "gather:Prepare", -1),
                       ("rpc_begin", "gather:Decide", -1),
                       ("rpc_end", "gather:Decide", -1)]
    retries = [(event.tid, event.data["dst"], event.data["label"])
               for event in tracer.events if event.kind == "msg_retry"]
    assert (1, 2, "gather:Decide") in retries
    stats = system.degradation
    assert registry.counter("comms.retries").value == stats.rpc_retries
    assert registry.counter("comms.timeouts").value == stats.rpc_timeouts


def test_stale_votes_and_acks_are_metered_under_duplication(
        coordinators):
    with metering() as registry:
        system = remote_writers(FaultPlan(duplicate_rate=0.5))
        check_two_phase_commit(system, coordinators)
    stale = system.degradation.stale_replies
    assert stale > 0
    assert registry.counter("comms.stale_replies").value == stale


def test_a_lossy_local_run_leaves_an_exact_event_queue():
    # A receive timeout that fired must not be cancelled again by its
    # receiver's withdraw, or the drained heap keeps a negative live
    # count (``_dead`` 44 on this run) and ``len(kernel.events)`` raises.
    plan = load_plan(str(Path(__file__).resolve().parents[2]
                         / "examples" / "faults" / "lossy.json"))
    config = dataclasses.replace(
        distributed_config("local", 2.0, 0.5, n_transactions=120),
        faults=plan)
    system = DistributedSystem(config)
    system.run()
    assert len(system.kernel.events) == 0
    assert system.kernel.events._dead == 0
