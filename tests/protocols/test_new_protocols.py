"""Behaviour of the post-paper protocols (mpcp, fmlp, dpcp) on one
site, plus their sanitizer wiring."""

import dataclasses

import pytest

from repro.analyze.invariants import CeilingChecker, TwoPhaseChecker
from repro.analyze.sanitizer import Sanitizer, sanitize
from repro.cc import MPCP, FMLPQueueLock
from repro.cc.dpcp import DistributedPriorityCeiling
from repro.core import (SingleSiteConfig, SingleSiteSystem,
                        TimingConfig, WorkloadConfig)
from repro.core.experiment import run_single_site
from repro.kernel import Kernel
from repro.protocols import REGISTRY
from repro.txn import CostModel

MODERN = ("mpcp", "dpcp", "fmlp")


def config(protocol, seed=11, size=6, interarrival=18.0, n=60):
    return SingleSiteConfig(
        protocol=protocol, db_size=100,
        workload=WorkloadConfig(n_transactions=n,
                                mean_interarrival=interarrival,
                                transaction_size=size, size_jitter=2),
        timing=TimingConfig(slack_factor=8.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=2.0),
        seed=seed)


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------
def make_protocol(name, kernel):
    return REGISTRY.resolve(name).build(kernel)


def test_the_table_builds_the_new_classes():
    kernel = Kernel(seed=1)
    assert isinstance(make_protocol("mpcp", kernel), MPCP)
    assert isinstance(make_protocol("fmlp", kernel), FMLPQueueLock)
    assert isinstance(make_protocol("dpcp", kernel),
                      DistributedPriorityCeiling)
    # Aliases go through the same lookup.
    assert isinstance(make_protocol("fifo-queue", kernel),
                      FMLPQueueLock)


def test_fmlp_queues_fifo_but_schedules_cpu_by_priority():
    cc = FMLPQueueLock(Kernel(seed=1))
    assert cc.queue_policy == "fifo"
    assert cc.cpu_policy == "priority"


# ----------------------------------------------------------------------
# end-to-end single site
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", MODERN)
def test_every_transaction_reaches_a_terminal_state(protocol):
    system = SingleSiteSystem(config(protocol))
    monitor = system.run()
    assert monitor.processed == 60
    assert monitor.committed + monitor.missed == 60


@pytest.mark.parametrize("protocol", MODERN)
def test_no_locks_or_waiters_leak(protocol):
    system = SingleSiteSystem(config(protocol))
    system.run()
    assert len(system.cc.locks) == 0
    assert system.cc.waiting_count == 0


@pytest.mark.parametrize("protocol", MODERN)
def test_runs_are_deterministic(protocol):
    first = run_single_site(config(protocol))
    second = run_single_site(config(protocol))
    assert first == second


def test_dpcp_on_one_site_degenerates_to_c():
    # With every resource local, DPCP's per-site agents collapse to
    # the paper's single ceiling manager: bitwise-identical summaries.
    for seed in (11, 23):
        dpcp = run_single_site(config("dpcp", seed=seed))
        pcp = run_single_site(config("C", seed=seed))
        assert dpcp == pcp


def test_mpcp_inflates_priorities_under_contention():
    heavy = dataclasses.replace(config("mpcp", interarrival=8.0),
                                db_size=30)
    system = SingleSiteSystem(heavy)
    monitor = system.run()
    # Global ceiling inflation surfaces as inheritance events.
    assert system.cc.stats.inheritance_events > 0
    assert monitor.processed == 60


def test_fmlp_contention_never_strands_transactions():
    # Default victim_policy "none": no victim aborts, so transactions
    # stuck in a detected cycle still finish (as misses) at their
    # deadline instead of being restarted.
    heavy = dataclasses.replace(config("fmlp", interarrival=8.0),
                                db_size=30)
    system = SingleSiteSystem(heavy)
    monitor = system.run()
    assert monitor.processed == 60
    assert monitor.committed + monitor.missed == 60
    assert len(system.cc.locks) == 0
    assert system.cc.waiting_count == 0


# ----------------------------------------------------------------------
# sanitizer wiring
# ----------------------------------------------------------------------
def test_checker_selection_is_registry_driven():
    kernel = Kernel(seed=1)
    sanitizer = Sanitizer(strict=True)
    picks = {
        "dpcp": CeilingChecker,   # ceiling family despite the name
        "mpcp": TwoPhaseChecker,  # 2PL-based despite "pcp" in the name
        "fmlp": TwoPhaseChecker,
    }
    for name, checker_cls in picks.items():
        checker = sanitizer.attach_protocol(make_protocol(name, kernel))
        assert type(checker) is checker_cls, name


@pytest.mark.parametrize("protocol", MODERN)
def test_sanitized_runs_stay_clean(protocol):
    with sanitize(strict=True) as sanitizer:
        SingleSiteSystem(config(protocol)).run()
    assert sanitizer.clean
