"""A finished transaction is freed by its last reference.

No run may leave a transaction to the cyclic collector: a reference
cycle per finished transaction turns every refcount free into collector
work (and resident memory until the collector runs).  Three such cycles
existed — a TM process's ``payload`` against ``txn.process``, the
self-referencing closure of the 2PL deadlock search, and a deadlock
victim's ``DeadlockAbort`` holding ``Kernel._resume``'s frame in its
traceback — and each of the tests below fails if any one comes back.
"""

import gc

import pytest

from repro.core import (DistributedConfig, SingleSiteConfig,
                        SingleSiteSystem, TimingConfig, WorkloadConfig)
from repro.dist import DistributedSystem
from repro.kernel.turbo import ENV_ENGINE
from repro.protocols import REGISTRY
from repro.txn import CostModel, Transaction


def collector_garbage(run):
    """Every object the collector finds unreachable once ``run()`` has
    returned and dropped its system.

    The collector is off while ``run`` executes (so nothing is freed
    behind the count) and ``DEBUG_SAVEALL`` keeps what it finds; both
    settings, and ``gc.garbage``, are restored however the run ends.
    """
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        run()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def single_site(protocol, options=()):
    # Size 14 over 60 objects: enough contention for 2PL deadlocks (and
    # victims, under a victim policy) in every seed.
    return SingleSiteConfig(
        protocol=protocol, db_size=60, protocol_options=options,
        workload=WorkloadConfig(n_transactions=40, mean_interarrival=6.0,
                                transaction_size=14, size_jitter=2),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=2.0), seed=5)


def distributed(mode, protocol="C"):
    return DistributedConfig(
        mode=mode, protocol=protocol, comm_delay=2.0, db_size=90, seed=17,
        workload=WorkloadConfig(n_transactions=40, mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.4),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))


SINGLE_SITE = [(name, ()) for name in REGISTRY.names()] + [
    ("L", (("victim_policy", "youngest"),)),
    ("L", (("victim_policy", "requester"),)),
    ("P", (("victim_policy", "lowest_priority"),)),
]


def victim_policy(options):
    return dict(options).get("victim_policy", "none")


@pytest.mark.parametrize("protocol,options", SINGLE_SITE,
                         ids=[f"{name}-{victim_policy(options)}"
                              for name, options in SINGLE_SITE])
def test_single_site_run_leaves_no_cyclic_garbage(unobserved, monkeypatch,
                                                   protocol, options):
    # The reference engine, whatever the environment asks for: the
    # turbo queue recycles resume events that point back at it, one
    # cycle per kernel (not per transaction), which the distributed
    # census below tolerates.
    monkeypatch.delenv(ENV_ENGINE, raising=False)

    def run():
        system = SingleSiteSystem(single_site(protocol, options))
        monitor = system.run()
        assert monitor.processed == 40
        if victim_policy(options) != "none":
            # The victim path (and its thrown DeadlockAbort) was taken.
            assert system.cc.stats.deadlocks > 0

    assert collector_garbage(run) == []


@pytest.mark.parametrize("mode,protocol", [("global", "C"),
                                           ("local", "C"),
                                           ("global", "dpcp")])
def test_distributed_run_leaves_no_transaction_to_the_collector(
        unobserved, mode, protocol):
    # A finished kernel's server loops (Message Servers, managers,
    # appliers) never end, so the system itself is collector garbage;
    # the transactions it ran must not be.
    def run():
        system = DistributedSystem(distributed(mode, protocol))
        assert system.run().processed == 40

    garbage = collector_garbage(run)
    assert [obj for obj in garbage if isinstance(obj, Transaction)] == []
