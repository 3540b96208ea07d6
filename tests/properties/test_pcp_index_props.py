"""Property tests: the indexed PCP wake-up equals the full scan.

Random small configurations — protocol C, its exclusive ablation Cx and
DPCP; single-site, the local replicated architecture and the global one
(where DPCP runs one agent per site, so a transaction can wait at one
agent while inheriting at another) — run with every
:class:`PriorityCeiling` decision shadowed by the reference oracle in
``tests/cc/pcp_oracle.py``: each woken waiter, each ``contributions``
dict (keys, values and insertion order) and the absence of a stranded
admissible waiter at every ``_after_change`` — and with every
re-evaluation ``deregister`` skips made after all and required to be a
no-op.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               TimingConfig, WorkloadConfig)
from repro.core.experiment import run_distributed, run_single_site
from repro.faults.plan import FaultPlan
from tests.cc.pcp_oracle import shadowed

_CEILING_PROTOCOLS = st.sampled_from(["C", "Cx", "dpcp"])
_SEEDS = st.integers(min_value=0, max_value=2 ** 16)


@given(protocol=_CEILING_PROTOCOLS, seed=_SEEDS,
       n_transactions=st.integers(min_value=5, max_value=40),
       transaction_size=st.integers(min_value=2, max_value=6),
       mean_interarrival=st.sampled_from([0.5, 1.5, 3.0]),
       read_only=st.sampled_from([0.0, 0.25, 0.5]),
       db_size=st.sampled_from([12, 40]))
@settings(max_examples=25, deadline=None)
def test_single_site_decisions_match_the_full_scan(
        protocol, seed, n_transactions, transaction_size,
        mean_interarrival, read_only, db_size):
    config = SingleSiteConfig(
        protocol=protocol, db_size=db_size, seed=seed,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=mean_interarrival,
                                transaction_size=transaction_size,
                                read_only_fraction=read_only))
    with shadowed() as log:
        row = run_single_site(config)
    assert row["processed"] == n_transactions
    assert log.inheritance_passes > 0 or row["cc_blocks"] == 0


@given(mode=st.sampled_from(["local", "global"]),
       protocol=_CEILING_PROTOCOLS, seed=_SEEDS,
       mean_interarrival=st.sampled_from([1.0, 2.0, 4.0]),
       comm_delay=st.sampled_from([0.5, 2.0]),
       faulted=st.booleans())
@settings(max_examples=20, deadline=None)
def test_distributed_decisions_match_the_full_scan(
        mode, protocol, seed, mean_interarrival, comm_delay, faulted):
    config = DistributedConfig(
        mode=mode, protocol=protocol, comm_delay=comm_delay, db_size=30,
        seed=seed,
        workload=WorkloadConfig(n_transactions=30,
                                mean_interarrival=mean_interarrival,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.3),
        timing=TimingConfig(slack_factor=8.0))
    if faulted:
        # Lost, duplicated and late messages: retried requests, aborts
        # racing grants, cancel_async of queued waiters.
        config = dataclasses.replace(
            config, faults=FaultPlan(loss_rate=0.05, duplicate_rate=0.2,
                                     delay_jitter=0.3))
    with shadowed() as log:
        row = run_distributed(config)
    assert row["processed"] == 30
    assert log.inheritance_passes > 0 or row["cc_blocks"] == 0


#: Configurations that caught a hole in the settled-state skip while it
#: was written, each a pass `deregister` skipped although it was not a
#: no-op (the oracle makes every skipped pass and refuses any effect).
_PINNED = {
    # Two DPCP agents lend to one process, both below its base
    # priority: no effective change for the kernel to count, yet the
    # pass writes this agent's loan back (an inheritance event).
    "overwritten-loan": DistributedConfig(
        mode="global", protocol="dpcp", comm_delay=2.0, db_size=30,
        seed=764,
        workload=WorkloadConfig(n_transactions=30, mean_interarrival=1.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.3),
        timing=TimingConfig(slack_factor=8.0)),
    # A boosted waiter's manager process ends (deadline miss) while its
    # abort message is in flight: waiter_priority() drops to the base
    # priority with no event at the agent.
    "ended-boosted-waiter": DistributedConfig(
        mode="global", protocol="dpcp", comm_delay=2.0, db_size=12,
        seed=22242,
        workload=WorkloadConfig(n_transactions=60, mean_interarrival=0.5,
                                transaction_size=6, size_jitter=1,
                                read_only_fraction=0.3),
        timing=TimingConfig(slack_factor=2.0),
        faults=FaultPlan(loss_rate=0.05, duplicate_rate=0.2,
                         delay_jitter=0.3)),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_pinned_counterexamples_match_the_full_scan(name):
    with shadowed() as log:
        row = run_distributed(_PINNED[name])
    assert row["processed"] == _PINNED[name].workload.n_transactions
    assert log.skipped_passes > 0
