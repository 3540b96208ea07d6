"""Invariant auditors: they stay silent on correct runs and catch
hand-made violations."""

import pytest

from repro.cc import PriorityCeiling, TwoPhaseLocking
from repro.core.validate import (CeilingAuditor, InvariantViolation,
                                 LockDisciplineAuditor)
from repro.db.locks import LockMode
from repro.kernel import Kernel
from tests.conftest import LockClient, make_txn


def test_lock_discipline_clean_on_correct_run(kernel):
    cc = TwoPhaseLocking(kernel)
    auditor = LockDisciplineAuditor(cc)
    clients = [LockClient(kernel, cc,
                          make_txn([(i, "w"), (i + 1, "w")], priority=1),
                          hold_each=1.0)
               for i in range(0, 6, 2)]
    kernel.run()
    assert all(client.finished for client in clients)
    assert auditor.clean
    assert sum(auditor.grants.values()) == 6
    assert sum(auditor.releases.values()) == 3


def test_lock_discipline_detects_acquire_after_release(kernel):
    cc = TwoPhaseLocking(kernel)
    auditor = LockDisciplineAuditor(cc)
    txn = make_txn([(1, "w"), (2, "w")], priority=1)
    cc.locks.grant(1, txn, LockMode.WRITE)
    cc.locks.release_all(txn)
    with pytest.raises(InvariantViolation, match="shrinking phase"):
        cc.locks.grant(2, txn, LockMode.WRITE)
    assert not auditor.clean


def test_lock_discipline_allows_restarted_victims(kernel):
    # Drive real transaction managers (which restart deadlock victims),
    # not scripted clients (which only abort).
    from repro.db import Database
    from repro.resources import CPU, ParallelIO
    from repro.txn import CostModel
    from repro.txn.manager import spawn_transaction

    cc = TwoPhaseLocking(kernel, victim_policy="requester")
    auditor = LockDisciplineAuditor(cc)
    cpu = CPU(kernel, policy=cc.cpu_policy)
    io = ParallelIO(kernel)
    database = Database(10)
    costs = CostModel(cpu_per_object=1.0, io_per_object=2.0)
    t1 = make_txn([(1, "w"), (2, "w")], priority=1, deadline=1000.0)
    t2 = make_txn([(2, "w"), (1, "w")], priority=1, deadline=1000.0)
    for txn in (t1, t2):
        spawn_transaction(kernel, txn, cc, cpu, io, database, costs,
                          lambda txn: None)
    kernel.run()
    # One of them aborted and re-acquired: legal, not a violation.
    assert auditor.clean
    assert t1.restarts + t2.restarts >= 1
    assert t1.committed and t2.committed


def test_lock_discipline_detects_conflicting_grant(kernel):
    cc = TwoPhaseLocking(kernel)
    LockDisciplineAuditor(cc)
    a = make_txn([(1, "w")], priority=1)
    b = make_txn([(1, "w")], priority=1)
    cc.locks.grant(1, a, LockMode.WRITE)
    with pytest.raises(InvariantViolation, match="conflicting grant"):
        cc.locks.grant(1, b, LockMode.WRITE)


def test_ceiling_auditor_clean_on_correct_run(kernel):
    cc = PriorityCeiling(kernel)
    auditor = CeilingAuditor(cc)
    clients = []
    for index in range(6):
        txn = make_txn([(index % 3, "w")], priority=float(6 - index))
        clients.append(LockClient(kernel, cc, txn, hold_each=1.0,
                                  start_delay=index * 0.5))
    kernel.run()
    assert all(client.finished for client in clients)
    assert auditor.clean
    assert auditor.checked >= 6


def test_ceiling_auditor_detects_barrier_violation(kernel):
    cc = PriorityCeiling(kernel)
    CeilingAuditor(cc)
    holder = make_txn([(1, "w")], priority=9)
    intruder = make_txn([(2, "w")], priority=1)
    cc.register(holder)
    cc.register(intruder)
    cc.locks.grant(1, holder, LockMode.WRITE)
    # Granting object 2 to the low-priority intruder violates the
    # ceiling rule (barrier = holder's ceiling on object 1).
    with pytest.raises(InvariantViolation, match="despite ceiling"):
        cc.locks.grant(2, intruder, LockMode.WRITE)


def test_ceiling_auditor_does_not_trust_the_barrier_index(kernel):
    cc = PriorityCeiling(kernel)
    CeilingAuditor(cc)
    holder = make_txn([(1, "w")], priority=9)
    intruder = make_txn([(2, "w")], priority=1)
    cc.register(holder)
    cc.register(intruder)
    assert cc.acquire_async(holder, 1, LockMode.WRITE,
                            on_grant=lambda: None)
    # Corrupt the protocol's index: its own admission test now passes
    # the intruder, the auditor's from-scratch barrier does not.
    cc._entries.clear()
    cc._entry_of.clear()
    assert cc._ceiling_barrier(intruder) == (None, None)
    with pytest.raises(InvariantViolation, match="despite ceiling 9"):
        cc.acquire_async(intruder, 2, LockMode.WRITE,
                         on_grant=lambda: None)


def test_ceiling_auditor_requires_pcp(kernel):
    with pytest.raises(TypeError):
        CeilingAuditor(TwoPhaseLocking(kernel))
