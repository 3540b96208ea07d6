"""The tier-1 scenarios pinned by the golden summary files.

Each scenario is one seeded run whose *complete* monitor summary is
frozen in ``tests/core/golden/summary_values_<name>.json``.  The files
were generated from the pre-optimization simulation core, so they are
the determinism contract every hot-path optimization must honour: the
optimized core has to reproduce each summary bitwise, key by key.

Regenerate deliberately (only when the model itself changes, never to
paper over an optimization-induced drift)::

    PYTHONPATH=src python tests/core/golden_scenarios.py --write
"""

from __future__ import annotations

import json
import os
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _single_site(protocol: str) -> dict:
    from repro.core.config import SingleSiteConfig, WorkloadConfig
    from repro.core.experiment import run_single_site
    return run_single_site(SingleSiteConfig(
        protocol=protocol, db_size=120, seed=11,
        workload=WorkloadConfig(n_transactions=80, mean_interarrival=2.0,
                                transaction_size=6, size_jitter=2,
                                read_only_fraction=0.25)))


def _distributed(mode: str, faulted: bool = False,
                 protocol: str = "C") -> dict:
    import dataclasses

    from repro.core.config import (DistributedConfig, TimingConfig,
                                   WorkloadConfig)
    from repro.core.experiment import run_distributed
    from repro.txn.manager import CostModel
    config = DistributedConfig(
        mode=mode, protocol=protocol, comm_delay=1.0, db_size=90, seed=7,
        workload=WorkloadConfig(n_transactions=60, mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.5),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))
    if faulted:
        from repro.faults.plan import FaultPlan, SiteCrash
        plan = FaultPlan(loss_rate=0.08, delay_jitter=0.5,
                         duplicate_rate=0.03,
                         crashes=(SiteCrash(site=1, at=60.0,
                                            down_for=40.0),))
        config = dataclasses.replace(config, faults=plan)
    return run_distributed(config)


#: name -> zero-argument callable producing one summary row.
#: The five single-site scenarios cover every legacy protocol letter:
#: the registry migration (repro.protocols) is required to reproduce
#: all of them bitwise.
SCENARIOS = {
    "single_site_pcp": lambda: _single_site("C"),
    "single_site_2pl": lambda: _single_site("L"),
    "single_site_2plp": lambda: _single_site("P"),
    "single_site_pi": lambda: _single_site("PI"),
    "single_site_pcpx": lambda: _single_site("Cx"),
    "single_site_mpcp": lambda: _single_site("mpcp"),
    "single_site_fmlp": lambda: _single_site("fmlp"),
    "dist_local": lambda: _distributed("local"),
    "dist_global": lambda: _distributed("global"),
    "dist_faulted": lambda: _distributed("local", faulted=True),
    "dist_dpcp": lambda: _distributed("global", protocol="dpcp"),
}


def run_scenario(name: str) -> dict:
    """One scenario run (a row is a function of its config alone)."""
    return SCENARIOS[name]()


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"summary_values_{name}.json")


def load_golden(name: str) -> dict:
    with open(golden_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_goldens() -> None:
    for name in SCENARIOS:
        summary = run_scenario(name)
        with open(golden_path(name), "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {golden_path(name)} ({len(summary)} keys)")


if __name__ == "__main__":
    if "--write" not in sys.argv:
        print(__doc__)
        sys.exit(2)
    write_goldens()
