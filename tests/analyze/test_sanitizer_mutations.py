"""Mutation tests: break each protocol invariant on purpose and assert
the corresponding sanitizer detector fires — and that every violation
identifies the offending transaction and object.

Each test runs under a *recording* sanitizer (strict=False) so the
mutated run completes and the collected violations can be inspected.
A kernel samples the activation when it is built, so the tests request
``san`` *before* ``kernel`` (pytest builds fixtures in that order).
"""

import pytest

from repro.analyze.sanitizer import (ENV_VAR, SanitizerViolation,
                                     sanitize)
from repro.cc.priority_ceiling import PriorityCeiling
from repro.cc.twopl import TwoPhaseLocking
from repro.db.locks import LockMode
from repro.db.replication import ReplicaCatalog
from repro.kernel import Kernel
from repro.kernel.syscalls import BLOCKED, DONE
from repro.txn.transaction import TransactionAbort
from tests.conftest import LockClient, make_txn


@pytest.fixture
def san():
    with sanitize(strict=False) as sanitizer:
        yield sanitizer


def only_codes(sanitizer):
    return sorted({v.code for v in sanitizer.violations})


# ----------------------------------------------------------------------
# SAN-PCP-CEILING — admission ignores the ceiling rule
# ----------------------------------------------------------------------
def test_broken_ceiling_admission_is_detected(san, kernel, monkeypatch):
    # Mutation: the admission test stops consulting the ceiling.
    monkeypatch.setattr(PriorityCeiling, "_can_acquire",
                        lambda self, txn, oid, mode: True)
    cc = PriorityCeiling(kernel)
    high = make_txn([(1, "w")], priority=10)
    low = make_txn([(2, "w")], priority=5)
    LockClient(kernel, cc, high, hold=20.0)
    # Arrives while object 1 (rw-ceiling 10) is locked by `high`:
    # protocol C must block it, the mutated admission lets it through.
    LockClient(kernel, cc, low, hold=5.0, start_delay=1.0)
    kernel.run()
    assert "SAN-PCP-CEILING" in only_codes(san)
    violation = next(v for v in san.violations
                     if v.code == "SAN-PCP-CEILING")
    assert violation.txn == low.tid
    assert violation.oid == 2
    assert violation.protocol == "C"


# ----------------------------------------------------------------------
# A corrupted barrier index, under REPRO_SANITIZE=1: the checker keeps
# its own books (lock table + declared sets), so it convicts the
# protocol's index instead of sharing its mistake.
# ----------------------------------------------------------------------
@pytest.fixture
def strict_from_env(unobserved, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")


def test_dropped_barrier_entry_is_detected(strict_from_env, kernel):
    cc = PriorityCeiling(kernel)
    high = make_txn([(1, "w")], priority=10)
    low = make_txn([(2, "w")], priority=5)
    cc.register(high)
    cc.register(low)
    assert cc.attempt(kernel, high.process, high, 1, LockMode.WRITE,
                      on_grant=lambda: None) is DONE
    assert cc._entries == [(-10.0, 0, 1)]
    # Mutation: the index forgets the lock that forms the barrier.
    cc._entries.clear()
    cc._entry_of.clear()
    with pytest.raises(SanitizerViolation) as excinfo:
        cc.attempt(kernel, low.process, low, 2, LockMode.WRITE,
                   on_grant=lambda: None)
    violation = excinfo.value.violation
    assert violation.code == "SAN-PCP-CEILING"
    assert violation.txn == low.tid
    assert violation.oid == 2
    assert violation.protocol == "C"


def test_inflated_barrier_entry_is_detected(strict_from_env, kernel):
    cc = PriorityCeiling(kernel)
    holder = make_txn([(1, "w")], priority=10)
    above = make_txn([(2, "w")], priority=12)
    cc.register(holder)
    cc.register(above)
    assert cc.attempt(kernel, holder.process, holder, 1, LockMode.WRITE,
                      on_grant=lambda: None) is DONE
    # Mutation: the index carries a ceiling nobody declared, so a
    # transaction above the real barrier is turned away.
    cc._entries[0] = cc._entry_of[1] = (-20.0, 0, 1)
    with pytest.raises(SanitizerViolation) as excinfo:
        cc.attempt(kernel, above.process, above, 2, LockMode.WRITE,
                   on_grant=lambda: None)
    violation = excinfo.value.violation
    assert violation.code == "SAN-PCP-BLOCK"
    assert violation.txn == above.tid
    assert violation.oid == 2


# ----------------------------------------------------------------------
# SAN-PCP-BLOCK — spurious blocking with no justification
# ----------------------------------------------------------------------
def test_spurious_ceiling_block_is_detected(san, kernel, monkeypatch):
    # Mutation: the protocol refuses every acquisition.
    monkeypatch.setattr(PriorityCeiling, "_can_acquire",
                        lambda self, txn, oid, mode: False)
    cc = PriorityCeiling(kernel)
    txn = make_txn([(1, "w")], priority=10)
    client = LockClient(kernel, cc, txn)
    kernel.run(until=50.0)
    assert "SAN-PCP-BLOCK" in only_codes(san)
    violation = san.violations[0]
    assert violation.txn == txn.tid
    assert violation.oid == 1
    # Unwedge the permanently-refused client so it can clean up while
    # the mutated protocol is still installed.
    kernel.interrupt(txn.process, TransactionAbort("test cleanup"))
    kernel.run()
    assert client.aborted


# ----------------------------------------------------------------------
# SAN-PCP-ONCE — blocked-at-most-once accounting
# ----------------------------------------------------------------------
def test_repeated_ceiling_blocking_is_detected(san, kernel):
    # Mutation at the client layer: a callback requester withdraws and
    # re-requests within one stable active set, producing two blocking
    # episodes against the same lower-priority holder — more than the
    # PCP bound of one critical section allows.
    cc = PriorityCeiling(kernel)
    low = make_txn([(1, "w")], priority=1)
    high = make_txn([(1, "w")], priority=10)
    cc.register(low)
    cc.locks.grant(1, low.tid, LockMode.WRITE)
    cc.register(high)
    for __ in range(2):
        assert cc.attempt(kernel, high.process, high, 1, LockMode.WRITE,
                          on_grant=lambda: None) is BLOCKED
        cc.cancel_async(high)
    assert "SAN-PCP-ONCE" in only_codes(san)
    violation = next(v for v in san.violations
                     if v.code == "SAN-PCP-ONCE")
    assert violation.txn == high.tid
    assert violation.oid == 1


# ----------------------------------------------------------------------
# SAN-PCP-DEADLOCK — a direct-conflict wait cycle under protocol C
# ----------------------------------------------------------------------
def test_ceiling_deadlock_cycle_is_detected(san, kernel, monkeypatch):
    # Mutation: admission checks only direct lock compatibility (the
    # ceiling test — the thing that makes C deadlock-free — is gone).
    monkeypatch.setattr(
        PriorityCeiling, "_can_acquire",
        lambda self, txn, oid, mode: self.locks.can_grant(oid, txn.tid,
                                                          mode))
    cc = PriorityCeiling(kernel)
    first = make_txn([(1, "w"), (2, "w")], priority=5)
    second = make_txn([(2, "w"), (1, "w")], priority=6)
    cc.register(first)
    cc.register(second)
    cc.locks.grant(1, first.tid, LockMode.WRITE)
    cc.locks.grant(2, second.tid, LockMode.WRITE)
    # Each now requests the other's object: a classic two-member cycle
    # the real admission test would have prevented.
    assert cc.attempt(kernel, first.process, first, 2, LockMode.WRITE,
                      on_grant=lambda: None) is BLOCKED
    assert cc.attempt(kernel, second.process, second, 1, LockMode.WRITE,
                      on_grant=lambda: None) is BLOCKED
    assert "SAN-PCP-DEADLOCK" in only_codes(san)
    violation = next(v for v in san.violations
                     if v.code == "SAN-PCP-DEADLOCK")
    assert violation.txn in (first.tid, second.tid)
    cc.cancel_async(first)
    cc.cancel_async(second)


# ----------------------------------------------------------------------
# SAN-2PL-PHASE — lock acquired after the first release
# ----------------------------------------------------------------------
def test_lock_after_unlock_is_detected(san, kernel):
    # Mutation at the client layer: a transaction manager that keeps
    # acquiring after its release point (broken two-phase discipline).
    cc = TwoPhaseLocking(kernel)
    txn = make_txn([(1, "w"), (2, "w")], priority=1)

    def broken_manager():
        cc.register(txn)
        yield cc.acquire(txn, 1, LockMode.WRITE)
        cc.release_all(txn)          # shrinking phase begins...
        yield cc.acquire(txn, 2, LockMode.WRITE)   # ...then grows again
        cc.release_all(txn)
        cc.deregister(txn)

    txn.process = kernel.spawn(broken_manager(), "broken-tm",
                               priority=txn.priority)
    kernel.run()
    assert only_codes(san) == ["SAN-2PL-PHASE"]
    violation = san.violations[0]
    assert violation.txn == txn.tid
    assert violation.oid == 2
    assert violation.protocol == "L"


# ----------------------------------------------------------------------
# SAN-2PL-STRICT — commit while still holding locks
# ----------------------------------------------------------------------
def test_commit_with_held_locks_is_detected(san, kernel):
    # Mutation at the client layer: a manager that commits without
    # releasing (strictness broken).
    cc = TwoPhaseLocking(kernel)
    txn = make_txn([(1, "w")], priority=1)

    def forgetful_manager():
        cc.register(txn)
        yield cc.acquire(txn, 1, LockMode.WRITE)
        # The commit point, locks still held.
        kernel.hooks.lock_commit(kernel.now, cc, txn)
        cc.release_all(txn)
        cc.deregister(txn)

    txn.process = kernel.spawn(forgetful_manager(), "forgetful-tm",
                               priority=txn.priority)
    kernel.run()
    assert "SAN-2PL-STRICT" in only_codes(san)
    violation = san.violations[0]
    assert violation.txn == txn.tid
    assert violation.oid == 1


# ----------------------------------------------------------------------
# SAN-LOCK-RACE — incompatible grants coexist
# ----------------------------------------------------------------------
def test_incompatible_coexisting_grants_are_detected(san, kernel):
    # Mutation: the lock table's compatibility predicate says yes to
    # everything, so two write locks land on one object.
    cc = TwoPhaseLocking(kernel)
    cc.locks.can_grant = lambda oid, owner, mode: True
    first = make_txn([(1, "w")], priority=1)
    second = make_txn([(1, "w")], priority=2)
    LockClient(kernel, cc, first, hold=20.0)
    LockClient(kernel, cc, second, hold=5.0, start_delay=1.0)
    kernel.run()
    assert "SAN-LOCK-RACE" in only_codes(san)
    violation = next(v for v in san.violations
                     if v.code == "SAN-LOCK-RACE")
    assert violation.oid == 1


# ----------------------------------------------------------------------
# SAN-REP-WRITER — a secondary originates an update
# ----------------------------------------------------------------------
def record_write(kernel, catalog, site, oid, timestamp):
    """What the local-mode managers do around a replica install."""
    kernel.hooks.replica_write(kernel.now, catalog, site, oid, timestamp)
    catalog.record_write(site, oid, timestamp)


def test_secondary_originated_update_is_detected(san, kernel):
    catalog = ReplicaCatalog(db_size=10, n_sites=3)
    oid = 0
    primary = catalog.primary_site(oid)
    secondary = (primary + 1) % 3
    # Legal propagation first: primary writes, secondary catches up.
    record_write(kernel, catalog, primary, oid, 5.0)
    record_write(kernel, catalog, secondary, oid, 5.0)
    assert san.clean
    # Mutation: the secondary originates a version the primary has
    # never seen (single-writer restriction R2 broken).
    record_write(kernel, catalog, secondary, oid, 9.0)
    assert only_codes(san) == ["SAN-REP-WRITER"]
    violation = san.violations[0]
    assert violation.oid == oid
    assert violation.site == secondary


def test_replica_installs_reach_the_checker(san, monkeypatch):
    # Mutation: the catalog forgets what the primaries wrote, so every
    # secondary install of a local-mode run looks like an origination.
    from repro.core import (DistributedConfig, WorkloadConfig,
                            run_distributed)
    monkeypatch.setattr(ReplicaCatalog, "copy_timestamp",
                        lambda self, site, oid: 0.0)
    run_distributed(DistributedConfig(
        mode="local", n_sites=2, db_size=20, seed=3,
        workload=WorkloadConfig(n_transactions=10, transaction_size=3,
                                read_only_fraction=0.0)))
    assert only_codes(san) == ["SAN-REP-WRITER"]


# ----------------------------------------------------------------------
# strict mode raises, record mode collects
# ----------------------------------------------------------------------
def test_strict_mode_raises_on_first_violation():
    with sanitize(strict=True):
        kernel = Kernel()
    catalog = ReplicaCatalog(db_size=4, n_sites=2)
    secondary = 1 - catalog.primary_site(0)
    with pytest.raises(SanitizerViolation) as excinfo:
        record_write(kernel, catalog, secondary, 0, 1.0)
    assert excinfo.value.violation.code == "SAN-REP-WRITER"
