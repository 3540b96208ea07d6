"""Property tests: the 2PL family's dirty-object wake-up and
reachable-only deadlock search equal the full scan.

Random small, heavily contended configurations — L, P, PI, MPCP and
FMLP under every victim policy on a single site (deadline misses,
deadlock victims restarting), and under the global architecture, where
the lock manager serves ``acquire_async`` requests and ``cancel_async``
withdraws them — run with every :class:`TwoPhaseLocking` decision
shadowed by the reference oracle in ``tests/cc/twopl_oracle.py``: each
woken waiter, the absence of a stranded admissible waiter whenever
``_reevaluate`` returns, and each deadlock cycle, node order included.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.deadlock import VICTIM_POLICIES
from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               TimingConfig, WorkloadConfig)
from repro.core.experiment import run_distributed, run_single_site
from repro.faults.plan import FaultPlan
from tests.cc.twopl_oracle import shadowed

_TWOPL_FAMILY = st.sampled_from(["L", "P", "PI", "mpcp", "fmlp"])
_SEEDS = st.integers(min_value=0, max_value=2 ** 16)


@given(protocol=_TWOPL_FAMILY,
       victim_policy=st.sampled_from(VICTIM_POLICIES), seed=_SEEDS,
       n_transactions=st.integers(min_value=5, max_value=40),
       transaction_size=st.integers(min_value=2, max_value=6),
       mean_interarrival=st.sampled_from([0.5, 1.5, 3.0]),
       read_only=st.sampled_from([0.0, 0.25, 0.5]),
       write_fraction=st.sampled_from([1.0, 0.5]),
       db_size=st.sampled_from([8, 12, 40]))
@settings(max_examples=60, deadline=None)
def test_single_site_decisions_match_the_full_scan(
        protocol, victim_policy, seed, n_transactions, transaction_size,
        mean_interarrival, read_only, write_fraction, db_size):
    config = SingleSiteConfig(
        protocol=protocol, db_size=db_size, seed=seed,
        protocol_options=(("victim_policy", victim_policy),),
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=mean_interarrival,
                                transaction_size=transaction_size,
                                read_only_fraction=read_only,
                                write_fraction=write_fraction))
    with shadowed() as log:
        row = run_single_site(config)
    assert row["processed"] == n_transactions
    assert log.searches == row["cc_blocks"]
    assert log.cycles == row["cc_deadlocks"]


@given(protocol=_TWOPL_FAMILY, seed=_SEEDS,
       mean_interarrival=st.sampled_from([1.0, 2.0, 4.0]),
       comm_delay=st.sampled_from([0.5, 2.0]),
       faulted=st.booleans())
@settings(max_examples=20, deadline=None)
def test_global_mode_decisions_match_the_full_scan(
        protocol, seed, mean_interarrival, comm_delay, faulted):
    # victim_policy stays "none": the config refuses anything else in
    # global mode (an async request has no parked process to abort).
    config = DistributedConfig(
        mode="global", protocol=protocol, comm_delay=comm_delay,
        db_size=30, seed=seed,
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
    assert log.searches == row["cc_blocks"]
