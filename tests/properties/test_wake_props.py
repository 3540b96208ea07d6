"""Property test: the fused wake is the queued wake.

``Kernel.wake`` steps a woken process inside its completion callback
when the instant is quiet, and otherwise queues the resume as
``ready`` always did.  The queued path is the oracle: every random
configuration below runs twice — once as shipped, once with the engine
capability stored off on that one kernel (``kernel.fuses_wakes =
False``; there is deliberately no env var or config field) — and must
produce the identical summary row **and** the identical sequence of
process steps, ``(time, process)`` for every resume of the run.

Single-site runs cover the ceiling protocol and the 2PL family with
every victim policy (deadlock victims restart through ``Delay``),
parallel I/O and the bounded ``DiskArray``; distributed runs cover the
local and global architectures, fair-weather and under a lossy fault
plan (timeouts racing deliveries at equal instants).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.deadlock import VICTIM_POLICIES
from repro.core.builder import SingleSiteSystem
from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               TimingConfig, WorkloadConfig)
from repro.dist.system import DistributedSystem
from repro.faults.plan import FaultPlan
from repro.kernel.turbo import make_kernel
from repro.txn.manager import CostModel

_SEEDS = st.integers(min_value=0, max_value=2 ** 16)


def observed(build, fuse):
    """Build and run a system; returns ``(row, resumes, fused_wakes)``."""
    system = build()
    kernel = system.kernel
    if not fuse:
        kernel.fuses_wakes = False
    resumes = []
    resume = kernel._resume

    def recording(process, value, exc):
        resumes.append((kernel.now, process.pid))
        resume(process, value, exc)

    kernel._resume = recording  # run() and wake() both look it up
    system.run()
    row = system.summary()
    if isinstance(system, DistributedSystem):
        row["max_staleness"] = system.max_staleness()
    return row, resumes, kernel.fused_wakes


def assert_fused_equals_queued(build):
    row, resumes, fused = observed(build, fuse=True)
    oracle_row, oracle_resumes, never = observed(build, fuse=False)
    assert never == 0
    assert resumes == oracle_resumes
    assert row == oracle_row
    return fused


@given(protocol=st.sampled_from(["C", "P", "L", "PI", "mpcp", "fmlp"]),
       victim_policy=st.sampled_from(VICTIM_POLICIES), seed=_SEEDS,
       n_transactions=st.integers(min_value=5, max_value=40),
       transaction_size=st.integers(min_value=2, max_value=6),
       mean_interarrival=st.sampled_from([0.5, 1.5, 3.0]),
       read_only=st.sampled_from([0.0, 0.25, 0.5]),
       db_size=st.sampled_from([8, 12, 40]),
       io_servers=st.sampled_from([None, 1, 2]),
       costs=st.sampled_from([
           CostModel(),  # the paper's 1 + 1 = 2: ties everywhere
           CostModel(cpu_per_object=0.75, io_per_object=1.25,
                     restart_delay=1.0),
           CostModel(io_per_object=0.0)]))
@settings(max_examples=60, deadline=None)
def test_single_site_runs_step_identically_fused_and_queued(
        protocol, victim_policy, seed, n_transactions, transaction_size,
        mean_interarrival, read_only, db_size, io_servers, costs):
    options = ((("victim_policy", victim_policy),)
               if protocol != "C" else ())
    config = SingleSiteConfig(
        protocol=protocol, db_size=db_size, seed=seed,
        protocol_options=options, io_servers=io_servers, costs=costs,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=mean_interarrival,
                                transaction_size=transaction_size,
                                read_only_fraction=read_only))
    assert_fused_equals_queued(lambda: SingleSiteSystem(config))


@given(mode=st.sampled_from(["local", "global"]),
       protocol=st.sampled_from(["C", "L", "dpcp"]), seed=_SEEDS,
       mean_interarrival=st.sampled_from([1.0, 2.0, 4.0]),
       comm_delay=st.sampled_from([0.0, 0.5, 2.0]),
       faulted=st.booleans())
@settings(max_examples=30, deadline=None)
def test_distributed_runs_step_identically_fused_and_queued(
        mode, protocol, seed, mean_interarrival, comm_delay, faulted):
    config = DistributedConfig(
        mode=mode, protocol=protocol, comm_delay=comm_delay,
        db_size=30, seed=seed,
        workload=WorkloadConfig(n_transactions=30,
                                mean_interarrival=mean_interarrival,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.3),
        timing=TimingConfig(slack_factor=8.0))
    if faulted:
        config = dataclasses.replace(
            config, faults=FaultPlan(loss_rate=0.05, duplicate_rate=0.2,
                                     delay_jitter=0.3))
    assert_fused_equals_queued(lambda: DistributedSystem(config))


def test_the_property_is_not_vacuous():
    """The shipped path really fuses on these systems (on the turbo
    engine, which lacks the capability, both runs are queued)."""
    config = SingleSiteConfig(
        protocol="C", db_size=40, seed=7,
        workload=WorkloadConfig(n_transactions=20, transaction_size=4))
    fused = assert_fused_equals_queued(lambda: SingleSiteSystem(config))
    assert (fused > 0) == make_kernel().fuses_wakes
