"""Experiment runner: seeded replications and parameter sweeps.

"For each experiment and for each algorithm tested, we collected
performance statistics and averaged over the 10 runs."  The runner
replays each configuration under ``replications`` different seeds and
averages the summary rows; sweeps vary one knob and produce the series
a figure plots.

Execution is delegated to :mod:`repro.exec`: every public function
plans its request into independent ``(config, seed)`` run units and
hands them to the engine, which runs them serially (``jobs=1``, the
default — bit-identical to the historical in-process loop) or on a
fault-tolerant process pool (``jobs>1`` or ``REPRO_JOBS``), optionally
satisfying units from the on-disk result cache.  Rows are merged in
plan order regardless of completion order, so parallel runs aggregate
to exactly the same series as serial ones.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..dist.system import DistributedSystem
from ..exec import plan_batch, rows_by_group, run_units
from ..exec.cache import CacheSpec
from .builder import SingleSiteSystem
from .config import DistributedConfig, SingleSiteConfig
from .metrics import aggregate_runs


def run_single_site(config: SingleSiteConfig) -> dict:
    """One seeded single-site run -> summary row."""
    system = SingleSiteSystem(config)
    system.run()
    return system.summary()


def run_distributed(config: DistributedConfig) -> dict:
    """One seeded distributed run -> summary row."""
    system = DistributedSystem(config)
    system.run()
    row = system.summary()
    row["max_staleness"] = system.max_staleness()
    return row


def replicate_many(configs: Sequence[object], replications: int = 10,
                   base_seed: int = 1, *, jobs: Optional[int] = None,
                   cache: CacheSpec = None,
                   progress=None, fleet=None) -> List[Dict[str, float]]:
    """Replicate several configurations in one engine run.

    All ``len(configs) * replications`` units fan out together, so a
    multi-point figure keeps every worker busy across sweep points
    instead of joining at each point boundary.  Returns one averaged
    summary per config, in input order.
    """
    configs = list(configs)
    units = plan_batch(configs, replications=replications,
                       base_seed=base_seed)
    result = run_units(units, jobs=jobs, cache=cache,
                       progress=progress,
                       fleet=fleet).require_success()
    grouped = rows_by_group(units, result.rows)
    return [aggregate_runs(grouped[group])
            for group in range(len(configs))]


def replicate(config, replications: int = 10, base_seed: int = 1, *,
              jobs: Optional[int] = None, cache: CacheSpec = None,
              progress=None) -> Dict[str, float]:
    """Run ``config`` under ``replications`` seeds and average.

    ``config`` may be a :class:`SingleSiteConfig` or a
    :class:`DistributedConfig`; the seed field is replaced per run.
    """
    return replicate_many([config], replications=replications,
                          base_seed=base_seed, jobs=jobs, cache=cache,
                          progress=progress)[0]


def sweep_x(value: object) -> object:
    """The ``"x"`` cell recorded for one swept value.

    Numeric knobs keep the historical float coercion; anything that
    does not cleanly coerce (protocol names, tuples, booleans, None)
    is stored raw so non-numeric sweeps round-trip losslessly.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)      # numeric strings
    except (TypeError, ValueError):
        return value


def sweep(make_config: Callable[[object], object],
          values: Sequence, replications: int = 10,
          base_seed: int = 1, *, jobs: Optional[int] = None,
          cache: CacheSpec = None,
          progress=None) -> List[Dict[str, float]]:
    """Evaluate ``make_config(value)`` for each value in ``values``.

    Returns one averaged row per value, with the swept value recorded
    under ``"x"``.  This is the generic engine behind every figure:
    Figure 2 sweeps transaction size, Figure 4 sweeps the transaction
    mix, Figure 5 the communication delay, and so on.
    """
    values = list(values)
    summaries = replicate_many([make_config(value) for value in values],
                               replications=replications,
                               base_seed=base_seed, jobs=jobs,
                               cache=cache, progress=progress)
    series: List[Dict[str, float]] = []
    for value, row in zip(values, summaries):
        row["x"] = sweep_x(value)
        series.append(row)
    return series


def compare_protocols(base_config: SingleSiteConfig,
                      protocols: Iterable[str],
                      replications: int = 10,
                      base_seed: int = 1, *,
                      jobs: Optional[int] = None,
                      cache: CacheSpec = None,
                      progress=None) -> Dict[str, Dict[str, float]]:
    """Run the same workload under several protocols (Figures 2/3)."""
    protocols = list(protocols)
    summaries = replicate_many(
        [dataclasses.replace(base_config, protocol=protocol)
         for protocol in protocols],
        replications=replications, base_seed=base_seed, jobs=jobs,
        cache=cache, progress=progress)
    return dict(zip(protocols, summaries))
