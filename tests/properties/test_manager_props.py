"""Property test: the one-step manager is the three-yield manager.

The shipped single-site manager yields one syscall per object access
(the lock request, with the CPU burst folded into an immediate grant
and the I/O chained to the burst); ``tests/txn/manager_oracle.py``
keeps the body that yielded the lock, the CPU burst and the I/O burst
separately.  Every random configuration below runs under both and must
produce the identical summary row, the identical per-transaction
records (``blocked_time`` among them) and the identical stream of
instrumentation hooks, arguments included.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.deadlock import VICTIM_POLICIES
from repro.core.builder import SingleSiteSystem
from repro.core.config import SingleSiteConfig, WorkloadConfig
from repro.kernel.hooks import HOOKS, observing
from repro.txn.manager import CostModel
from tests.txn.manager_oracle import shadowed

_SEEDS = st.integers(min_value=0, max_value=2 ** 16)
_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _plain(value):
    """A hook argument as comparable data (live objects by identity
    fields, never by address)."""
    tid = getattr(value, "tid", None)
    if isinstance(tid, int):
        return ("txn", tid)
    if hasattr(value, "oid") and hasattr(value, "txn"):  # a Request
        return ("request", value.txn.tid, value.oid, str(value.mode))
    if hasattr(value, "pid"):
        return ("process", value.name)
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return _ADDRESS.sub("0x", repr(value))


class HookStream:
    """Records every run-time hook as ``(name, *plain arguments)``."""

    def __init__(self):
        self.events = []

    def __getattr__(self, name):
        if name not in HOOKS or name == "attach_protocol":
            raise AttributeError(name)

        def record(*args):
            self.events.append((name,) + tuple(_plain(arg)
                                               for arg in args))
        return record


def observed(config):
    stream = HookStream()
    with observing(stream):
        system = SingleSiteSystem(config)
    system.run()
    return (system.summary(), system.monitor.records, stream.events,
            system.kernel.events.queue_stats())


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
def test_the_one_step_manager_matches_the_three_yield_oracle(
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
    shipped = observed(config)
    with shadowed():
        oracle = observed(config)
    assert shipped[0] == oracle[0]
    assert shipped[1] == oracle[1]
    assert shipped[2] == oracle[2]
    assert shipped[3] == oracle[3]


def test_the_oracle_is_the_three_yield_body():
    """Not vacuous: under the oracle the managers step once per lock,
    CPU and I/O burst; shipped, once per object access."""
    config = SingleSiteConfig(
        protocol="C", db_size=400, seed=3,
        workload=WorkloadConfig(n_transactions=10, mean_interarrival=50.0,
                                transaction_size=4))

    def manager_steps():
        system = SingleSiteSystem(config)
        steps = []
        resume = system.kernel._resume

        def counting(process, value, exc):
            if process.name.startswith("tm-"):
                steps.append(process.name)
            resume(process, value, exc)

        system.kernel._resume = counting
        system.run()
        assert system.monitor.committed == 10
        return len(steps), sum(record.size
                               for record in system.monitor.records)

    shipped, accesses = manager_steps()
    with shadowed():
        oracle, same = manager_steps()
    # The oracle steps once more per object access: after its CPU burst.
    assert same == accesses and oracle - shipped == accesses > 0
