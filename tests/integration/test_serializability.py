"""Serializability audit: committed schedules must be conflict-acyclic.

Strict two-phase locking (and PCP, which is 2PL plus an admission test)
guarantees conflict-serializable executions.  This test instruments the
lock table to record every grant as a (time, txn, oid, mode) access,
builds the conflict graph over *committed* transactions, and checks it
is acyclic with networkx — an independent oracle for the protocols.
"""


import networkx
import pytest

from repro.core import (SingleSiteConfig, SingleSiteSystem, TimingConfig,
                        WorkloadConfig)
from repro.db.locks import LockMode
from repro.txn import CostModel


def run_with_audit(protocol, seed):
    config = SingleSiteConfig(
        protocol=protocol, db_size=40,
        workload=WorkloadConfig(n_transactions=60,
                                mean_interarrival=8.0,
                                transaction_size=4, size_jitter=1,
                                write_fraction=0.7),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=1.0),
        seed=seed)
    system = SingleSiteSystem(config)

    accesses = []  # (sequence, tid, oid, mode): lock owners are tids
    original_grant = system.cc.locks.grant

    def audited_grant(oid, owner, mode):
        accesses.append((len(accesses), owner, oid, mode))
        return original_grant(oid, owner, mode)

    system.cc.locks.grant = audited_grant
    system.run()
    return system, accesses


def conflict_graph(accesses, committed):
    graph = networkx.DiGraph()
    graph.add_nodes_from(committed)
    for i, (__, tid_a, oid_a, mode_a) in enumerate(accesses):
        if tid_a not in committed:
            continue
        for (___, tid_b, oid_b, mode_b) in accesses[i + 1:]:
            if tid_b not in committed or tid_b == tid_a:
                continue
            if oid_a != oid_b:
                continue
            if mode_a is LockMode.READ and mode_b is LockMode.READ:
                continue
            graph.add_edge(tid_a, tid_b)
    return graph


@pytest.mark.parametrize("protocol", ("L", "P", "PI", "C", "Cx"))
@pytest.mark.parametrize("seed", (1, 2))
def test_committed_schedule_is_conflict_serializable(protocol, seed):
    system, accesses = run_with_audit(protocol, seed)
    committed = {record.tid for record in system.monitor.records
                 if record.committed}
    graph = conflict_graph(accesses, committed)
    assert networkx.is_directed_acyclic_graph(graph), (
        f"conflict cycle under {protocol}: "
        f"{list(networkx.simple_cycles(graph))[:3]}")
