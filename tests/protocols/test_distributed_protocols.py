"""Distributed placement of the registry protocols.

DPCP is the interesting case: its ``placement="primary"`` hooks put a
ceiling agent at every site and route each lock request to the
resource's primary site, against the paper's single global ceiling
manager (and the local replicated approach) as baselines.
"""

import pytest

from repro.cc.dpcp import DistributedPriorityCeiling
from repro.core import DistributedConfig, TimingConfig, WorkloadConfig
from repro.core.experiment import run_distributed
from repro.dist import DistributedSystem
from repro.txn import CostModel


def config(mode, protocol, delay=2.0, seed=17, n=50, **overrides):
    defaults = dict(
        mode=mode, protocol=protocol, comm_delay=delay, db_size=90,
        seed=seed,
        workload=WorkloadConfig(n_transactions=n,
                                mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.4),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))
    defaults.update(overrides)
    return DistributedConfig(**defaults)


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def test_dpcp_global_mode_places_an_agent_at_every_site():
    system = DistributedSystem(config("global", "dpcp"))
    assert sorted(system.ccs) == [0, 1, 2]
    assert all(isinstance(cc, DistributedPriorityCeiling)
               for cc in system.ccs.values())
    assert system.lock_router is not None


def test_manager_placement_keeps_one_global_manager():
    system = DistributedSystem(config("global", "C"))
    assert sorted(system.ccs) == [0]
    assert system.lock_router is None


def test_local_mode_builds_the_registered_protocol_per_site():
    system = DistributedSystem(config("local", "dpcp"))
    assert sorted(system.ccs) == [0, 1, 2]
    assert all(isinstance(site.ceiling, DistributedPriorityCeiling)
               and system.ccs[site.site_id] is site.ceiling
               for site in system.sites)


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ("dpcp", "mpcp", "fmlp"))
def test_global_mode_completes_and_releases_everything(protocol):
    system = DistributedSystem(config("global", protocol))
    monitor = system.run()
    assert monitor.processed == 50
    assert monitor.committed + monitor.missed == 50
    for cc in system.ccs.values():
        assert len(cc.locks) == 0
        assert cc.waiting_count == 0


@pytest.mark.parametrize("mode", ("global", "local"))
def test_dpcp_runs_are_deterministic(mode):
    first = run_distributed(config(mode, "dpcp"))
    second = run_distributed(config(mode, "dpcp"))
    assert first == second


def test_dpcp_routes_lock_traffic_to_every_agent():
    # Objects are spread over primary sites, so with resource-local
    # routing every agent — not just the gcm site — serves requests.
    system = DistributedSystem(config("global", "dpcp"))
    system.run()
    for site, cc in system.ccs.items():
        assert cc.stats.requests > 0, site
    total = sum(cc.stats.requests
                for cc in system.ccs.values())
    lone = DistributedSystem(config("global", "C"))
    lone.run()
    # Same workload: the request volume lands on one manager instead.
    assert lone.ccs[0].stats.requests > 0
    assert total > 0


def test_summary_aggregates_over_all_agents():
    row = run_distributed(config("global", "dpcp"))
    assert row["processed"] == 50
    assert row["cc_blocks"] >= 0
