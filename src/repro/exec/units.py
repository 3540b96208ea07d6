"""Run-unit planner: expand a request into independent work units.

A *run unit* is the atom of experiment execution — one seeded
simulation run of one configuration.  Replication requests ("average
this config over 10 seeds"), sweeps ("vary this knob over these
values") and protocol comparisons all expand into a flat list of units
that the executor can fan out to workers in any order; the ``index``
field fixes the deterministic merge position and the ``group`` field
says which aggregate (sweep point, protocol, ...) the unit's row
belongs to.

The seed schedule is the historical one — ``base_seed + 1000 * k`` for
replication ``k`` — so results (and cache entries) line up with what
the serial runner always produced.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Sequence

#: Seed stride between successive replications of one configuration.
SEED_STRIDE = 1000


@dataclasses.dataclass(frozen=True)
class RunUnit:
    """One seeded simulation run, ready to hand to a worker.

    ``index`` is the unit's position in the plan (deterministic merge
    order); ``group`` identifies the aggregate the unit contributes to;
    ``config`` is the fully seeded, runnable configuration.
    """

    index: int
    group: Hashable
    config: object

    @property
    def seed(self) -> int:
        return self.config.seed


def runnable_configs() -> tuple:
    """Config types the execution engine knows how to run.

    Imported lazily: :mod:`repro.core.experiment` builds on this
    package, so a module-level import here would be circular.
    """
    from ..core.config import DistributedConfig, SingleSiteConfig
    return (SingleSiteConfig, DistributedConfig)


def check_runnable(config: object) -> None:
    """Raise TypeError unless the engine knows how to run ``config``."""
    runnable = runnable_configs()
    if not isinstance(config, runnable):
        raise TypeError(f"unknown config type {type(config).__name__}; "
                        f"expected one of "
                        f"{[c.__name__ for c in runnable]}")


def replication_seeds(replications: int, base_seed: int = 1) -> List[int]:
    """The seed schedule for ``replications`` runs of one config."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    return [base_seed + SEED_STRIDE * k for k in range(replications)]


def plan_replications(config, replications: int = 10, base_seed: int = 1,
                      group: Hashable = 0,
                      start_index: int = 0) -> List[RunUnit]:
    """Expand one configuration into its seeded replication units."""
    check_runnable(config)
    units = []
    for offset, seed in enumerate(replication_seeds(replications,
                                                    base_seed)):
        units.append(RunUnit(index=start_index + offset, group=group,
                             config=dataclasses.replace(config,
                                                        seed=seed)))
    return units


def plan_batch(configs: Sequence[object], replications: int = 10,
               base_seed: int = 1) -> List[RunUnit]:
    """Expand several configurations into one flat unit list.

    Config ``i`` gets ``group=i``; units are indexed contiguously so the
    executor's merged row list can be sliced back per config with
    :func:`group_rows`.
    """
    units: List[RunUnit] = []
    for group, config in enumerate(configs):
        units.extend(plan_replications(config, replications=replications,
                                       base_seed=base_seed, group=group,
                                       start_index=len(units)))
    return units


def plan_subset(configs: Sequence[object], keep: Sequence[int],
                replications: int = 10,
                base_seed: int = 1) -> List[RunUnit]:
    """Expand only the selected configurations of a batch.

    ``keep`` holds indices into ``configs``; each kept config gets
    ``group=i`` (its position in the *full* batch, exactly as
    :func:`plan_batch` would have assigned), so rows of a pruned plan
    line up with the unpruned config list.  This is the engine half of
    model-backed planning: an analytic scorer picks ``keep``, the
    executor never sees the pruned configs, and the cache keys of the
    surviving units are identical to a full run's — a later unpruned
    sweep reuses them.
    """
    kept = sorted(set(keep))
    if kept and not 0 <= kept[0] <= kept[-1] < len(configs):
        raise ValueError(f"keep indices {kept[0]}..{kept[-1]} outside "
                         f"the batch of {len(configs)} configs")
    units: List[RunUnit] = []
    for group in kept:
        units.extend(plan_replications(configs[group],
                                       replications=replications,
                                       base_seed=base_seed, group=group,
                                       start_index=len(units)))
    return units


def group_rows(units: Sequence[RunUnit], rows: Sequence[object],
               group: Hashable) -> List[object]:
    """The merged rows belonging to one plan group, in unit order."""
    if len(units) != len(rows):
        raise ValueError(f"{len(rows)} rows for {len(units)} units")
    return [row for unit, row in zip(units, rows) if unit.group == group]


def rows_by_group(units: Sequence[RunUnit], rows: Sequence[object]
                  ) -> Dict[Hashable, List[object]]:
    """Every plan group's merged rows, in unit order, from one pass
    over the plan (:func:`group_rows` for all groups at once)."""
    if len(units) != len(rows):
        raise ValueError(f"{len(rows)} rows for {len(units)} units")
    grouped: Dict[Hashable, List[object]] = {}
    for unit, row in zip(units, rows):
        grouped.setdefault(unit.group, []).append(row)
    return grouped
