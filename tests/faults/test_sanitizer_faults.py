"""Sanitizer under faults: no false positives, no lost detections.

Retries, duplicate deliveries, crash-aborts and recovery sweeps all
exercise protocol paths the sanitizer watches; a correct faulted run
must stay violation-free (the fault layer is *outside* the protocol),
while a genuinely broken protocol must still be caught even when a
fault plan is active.
"""

import pytest

from repro.analyze.sanitizer import sanitize
from repro.core import (DistributedConfig, TimingConfig, WorkloadConfig,
                        run_distributed)
from repro.db.locks import LockMode
from repro.dist import DistributedSystem
from repro.faults import FaultPlan, LinkPartition, SiteCrash
from repro.txn import CostModel
from tests.conftest import make_txn

HEAVY = FaultPlan(
    loss_rate=0.15, delay_jitter=1.5, duplicate_rate=0.1,
    reorder_rate=0.2, reorder_window=3.0,
    crashes=(SiteCrash(site=1, at=40.0, down_for=25.0),
             SiteCrash(site=2, at=90.0, down_for=15.0)),
    partitions=(LinkPartition(src=0, dst=2, start=20.0, until=35.0),))


def faulted_config(mode, seed, faults=HEAVY):
    return DistributedConfig(
        mode=mode, comm_delay=1.0, db_size=60, seed=seed,
        workload=WorkloadConfig(n_transactions=50,
                                mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.3),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0),
        faults=faults)


# ----------------------------------------------------------------------
# no false positives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["local", "global"])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_faulted_runs_are_violation_free(mode, seed):
    with sanitize(strict=True) as checker:
        run_distributed(faulted_config(mode, seed))
    assert checker.clean, checker.summary()


# ----------------------------------------------------------------------
# no lost detections (mutation test)
# ----------------------------------------------------------------------
@pytest.fixture
def san():
    with sanitize(strict=False) as sanitizer:
        yield sanitizer


def test_real_violation_is_still_caught_under_faults(san):
    # A rogue transaction acquires a lock *after* its first release —
    # a genuine two-phase violation — in the middle of a fully faulted
    # run.  The fault plan must not mask the detection (retries,
    # crash-aborts and dedup acks all route around the sanitizer's
    # hooks, never through them).
    system = DistributedSystem(faulted_config("local", seed=11))
    cc = system.sites[0].ceiling
    rogue = make_txn([(1, "r"), (2, "r")], priority=1e9)

    def body():
        cc.register(rogue)
        yield cc.acquire(rogue, 1, LockMode.READ)
        cc.release_all(rogue)                      # shrinking phase...
        yield cc.acquire(rogue, 2, LockMode.READ)  # ...then growing
        cc.release_all(rogue)
        cc.deregister(rogue)

    rogue.process = system.kernel.spawn(body(), "rogue",
                                        priority=rogue.priority)
    rogue.process.payload = rogue
    system.run()
    codes = {violation.code for violation in san.violations}
    assert "SAN-2PL-PHASE" in codes
    violation = next(v for v in san.violations
                     if v.code == "SAN-2PL-PHASE")
    assert violation.txn == rogue.tid
    assert violation.oid == 2
    # The faulted machinery genuinely ran around the rogue.
    assert system.degradation.crashes == 2


def test_mutation_control_is_clean(san):
    # Control for the mutation test: the identical faulted run without
    # the mutation records nothing.
    run_distributed(faulted_config("local", seed=11))
    assert san.clean, san.summary()
