"""A row is a function of its config: systems that share an interpreter
do not share ids.

Transaction and process ids are hashed (waits-for successor sets
iterate in ``hash(tid)`` order, and that order picks the deadlock
victim), so while they came from process-global counters a system's
row depended on what else the interpreter had numbered.  The counters
belong to the kernel and the system now: two systems built and stepped
*alternately* each return the row they return alone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.deadlock import VICTIM_POLICIES
from repro.core.builder import SingleSiteSystem
from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               TimingConfig, WorkloadConfig)
from repro.dist.system import DistributedSystem

_SEEDS = st.integers(min_value=0, max_value=2 ** 16)


@st.composite
def builders(draw):
    seed = draw(_SEEDS)
    workload = WorkloadConfig(
        n_transactions=draw(st.integers(min_value=5, max_value=30)),
        mean_interarrival=draw(st.sampled_from([0.5, 1.5])),
        transaction_size=draw(st.integers(min_value=2, max_value=4)),
        size_jitter=0)
    if draw(st.booleans()):
        # The id-sensitive family: 2PL with a victim policy on a small,
        # contended database.
        config = SingleSiteConfig(
            protocol=draw(st.sampled_from(["L", "P", "PI", "fmlp"])),
            db_size=8, seed=seed, workload=workload,
            protocol_options=(("victim_policy", draw(st.sampled_from(
                [p for p in VICTIM_POLICIES if p != "none"]))),))
        return lambda: SingleSiteSystem(config)
    config = DistributedConfig(
        mode=draw(st.sampled_from(["local", "global"])), db_size=12,
        seed=seed, comm_delay=1.0, workload=workload,
        timing=TimingConfig(slack_factor=6.0))
    return lambda: DistributedSystem(config)


def _row(system):
    row = system.summary()
    if isinstance(system, DistributedSystem):
        system._finalize_orphans()
        row["max_staleness"] = system.max_staleness()
    return row


def _alone(build):
    system = build()
    system.run()
    return _row(system), [(p.pid, p.name) for p in system.kernel.processes]


@given(first=builders(), second=builders())
@settings(max_examples=40, deadline=None)
def test_interleaved_systems_return_the_rows_they_return_alone(first,
                                                               second):
    expected = [_alone(first), _alone(second)]
    systems = [first(), second()]
    live = list(systems)
    while live:                         # one event each, turn by turn
        live = [system for system in live if system.kernel.step()]
    for system, (row, processes) in zip(systems, expected):
        assert _row(system) == row
        assert [(p.pid, p.name)
                for p in system.kernel.processes] == processes
