"""The two transports agree when nothing goes wrong.

`DirectComms` and `ReliableComms` differ in what they do about a lost
message, not in what a transaction manager gets back.  A plan whose
only fault is a site crash scheduled long after the last deadline
selects the reliable transport (`needs_recovery`) without perturbing a
single delivery, so a remote-writer schedule — the traffic that reaches
two-phase commit, which no generated workload has — must commit the
same transactions and leave the same values and version timestamps at
every primary as the same schedule under no plan at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (DistributedConfig, TimingConfig,
                               WorkloadConfig)
from repro.db.locks import LockMode
from repro.dist.comms import DirectComms, ReliableComms
from repro.dist.system import DistributedSystem
from repro.faults import FaultPlan, SiteCrash
from repro.txn import CostModel
from repro.txn.generator import TransactionSpec

N_SITES, DB_SIZE = 3, 9

#: Nothing is lost, so nothing should time out either: patience beyond
#: any wait keeps a retried DataRequest (a second helper, more CPU at
#: the home site) from being the difference under test.
QUIET = FaultPlan(rpc_timeout=5_000.0, rpc_timeout_cap=5_000.0,
                  crashes=(SiteCrash(site=1, at=50_000.0,
                                     down_for=1.0),))


@st.composite
def remote_writer_schedules(draw):
    specs = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        oids = draw(st.lists(st.integers(0, DB_SIZE - 1), min_size=1,
                             max_size=3, unique=True))
        modes = draw(st.lists(st.sampled_from(list(LockMode)),
                              min_size=len(oids), max_size=len(oids)))
        # Distinct fractional offsets: two transactions' messages never
        # tie at an instant, where a courier's send (one process step
        # later than the TM's own) could reorder them.
        arrival = draw(st.integers(0, 6)) + 0.137 * index
        specs.append(TransactionSpec(
            arrival, tuple(zip(oids, modes)),
            site=draw(st.integers(0, N_SITES - 1))))
    specs.sort(key=lambda spec: spec.arrival)
    return specs, draw(st.sampled_from([1.0, 2.0]))


def run(specs, comm_delay, faults):
    config = DistributedConfig(
        mode="global", n_sites=N_SITES, db_size=DB_SIZE, seed=1,
        comm_delay=comm_delay,
        workload=WorkloadConfig(n_transactions=len(specs),
                                transaction_size=1),
        timing=TimingConfig(slack_factor=200.0),
        costs=CostModel(cpu_per_object=1.25, io_per_object=0.0),
        faults=faults)
    system = DistributedSystem(config, schedule=specs)
    system.run()
    assert len(system.monitor.records) == len(specs)
    committed = sorted(txn.tid for txn in system.monitor.records
                       if txn.committed)
    primaries = [(obj.value, obj.version_ts)
                 for oid in range(DB_SIZE)
                 for obj in [system.sites[system.catalog.primary_site(
                     oid)].database.object(oid)]]
    return system, committed, primaries


@settings(max_examples=40, deadline=None)
@given(remote_writer_schedules())
def test_reliable_transport_changes_nothing_when_nothing_is_lost(drawn):
    specs, comm_delay = drawn
    direct, committed, primaries = run(specs, comm_delay, None)
    reliable, r_committed, r_primaries = run(specs, comm_delay, QUIET)
    assert direct.connect is DirectComms
    assert reliable.connect.func is ReliableComms
    assert committed == r_committed
    assert primaries == r_primaries
    assert reliable.degradation.rpc_timeouts == 0
    # The reliable side paid for its guarantees in messages only.
    assert reliable.network.messages_sent >= direct.network.messages_sent
