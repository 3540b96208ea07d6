"""The four workloads: unit lists built from ``--seed``.

A *unit* is one call into ``repro``'s public API — ``run_single_site``,
``run_distributed`` or ``replicate_many`` — taking 3–250 ms.  A *round*
is one pass over a workload's unit list; every round of a run is the
same work.

What the seed does
------------------
The content of every workload is pinned, because the content of the
user's workload is: ``repro fig2`` always simulates the same grid under
the same RNG seeds (``base_seed + 1000 * k``), so the units here are
the figure's own first replication (RNG seed 1 for every config) and,
for ``pcp_overload``, the first six replication seeds.  ``--seed``
draws what does differ between real runs: the order in which the units
are reached, which moves allocator, cache and collector state between
them.  Drawing fresh RNG seeds per benchmark seed was measured and
rejected: calls per transaction on ``fig5_grid`` then move by 12 %
between seeds (inter-quartile; local-mode runs range 4.7k-9.0k calls
per transaction), and even a within-curve permutation of a pinned seed
pool left 5-9 % on ``rel_cost`` -- wider than any bound worth gating.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro import (DistributedSystem, SingleSiteConfig,
                   SingleSiteSystem, WorkloadConfig, replicate_many,
                   run_distributed, run_single_site)
from repro.bench.figures import (FIG5_DELAYS, FIG23_SIZES, _fig5_config,
                                 single_site_config)
from repro.exec import ResultCache, replication_seeds

DEFAULT_SEED = 1
FIG23_PROTOCOLS = ("C", "P", "L")
FIG5_MODES = ("local", "global")


def digest(result: object) -> str:
    """SHA-256 over the canonical JSON of a unit's summary row(s)."""
    return hashlib.sha256(json.dumps(
        result, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


@dataclasses.dataclass(frozen=True)
class SimUnit:
    """One seeded simulation run through the public one-run entry."""

    uid: str
    config: object

    @property
    def entry(self) -> str:
        return ("run_single_site"
                if isinstance(self.config, SingleSiteConfig)
                else "run_distributed")

    def run(self, cache: Optional[ResultCache] = None
            ) -> Tuple[int, object]:
        """``(operations, summary row)``; op = processed transaction."""
        if isinstance(self.config, SingleSiteConfig):
            row = run_single_site(self.config)
        else:
            row = run_distributed(self.config)
        return row["processed"], row

    def observe(self, cache: Optional[ResultCache] = None
                ) -> Tuple[int, object, Tuple[int, int]]:
        """:meth:`run` with the system in hand, so the traced run can
        read the event queue's ``(dispatched, cancelled)`` totals."""
        if isinstance(self.config, SingleSiteConfig):
            system = SingleSiteSystem(self.config)
            system.run()
            row = system.summary()
        else:
            system = DistributedSystem(self.config)
            system.run()
            row = system.summary()
            row["max_staleness"] = system.max_staleness()
        _, dispatched, cancelled = system.kernel.events.queue_stats()
        return row["processed"], row, (dispatched, cancelled)

    def construct(self) -> None:
        """Build, but do not run, the unit's system (``setup_s``)."""
        if isinstance(self.config, SingleSiteConfig):
            SingleSiteSystem(self.config)
        else:
            DistributedSystem(self.config)

    def with_engine(self, engine: str) -> "SimUnit":
        return dataclasses.replace(self, config=dataclasses.replace(
            self.config, engine=engine))

    def exec_units(self) -> List[object]:
        return [self.config]


@dataclasses.dataclass(frozen=True)
class CacheUnit:
    """One ``replicate_many`` call over a size group, through the
    result cache of the current round."""

    uid: str
    configs: Tuple[object, ...]
    base_seed: int
    replications: int = 10
    entry: str = "replicate_many"

    def run(self, cache: Optional[ResultCache] = None
            ) -> Tuple[int, object]:
        """``(operations, summaries)``; op = exec run unit."""
        summaries = replicate_many(
            self.configs, replications=self.replications,
            base_seed=self.base_seed, jobs=1,
            cache=cache if cache is not None else False)
        return len(self.configs) * self.replications, summaries

    def observe(self, cache: Optional[ResultCache] = None
                ) -> Tuple[int, object, Tuple[int, int]]:
        ops, summaries = self.run(cache)
        return ops, summaries, (0, 0)

    def construct(self) -> None:
        for config in self.configs:
            SingleSiteSystem(config)

    def with_engine(self, engine: str) -> "CacheUnit":
        return dataclasses.replace(self, configs=tuple(
            dataclasses.replace(config, engine=engine)
            for config in self.configs))

    def exec_units(self) -> List[object]:
        return [dataclasses.replace(
            config, seed=self.base_seed + 1000 * k)
            for config in self.configs
            for k in range(self.replications)]


def _shuffled(seed: int, units: list) -> list:
    random.Random(seed).shuffle(units)
    return units


def _fig23_units(seed: int) -> List[SimUnit]:
    return _shuffled(seed, [
        SimUnit(f"{protocol}/s{size}",
                single_site_config(protocol, size))
        for protocol in FIG23_PROTOCOLS for size in FIG23_SIZES])


def _fig5_units(seed: int) -> List[SimUnit]:
    return _shuffled(seed, [
        SimUnit(f"{mode}/d{delay:g}",
                _fig5_config(mode, delay, 0.5, 150))
        for mode in FIG5_MODES for delay in FIG5_DELAYS])


#: Replications of the overloaded single-site config per round.
PCP_RUNS = 6


def _pcp_units(seed: int) -> List[SimUnit]:
    # The `repro bench` single-site config: ~4x overload under PCP.
    config = SingleSiteConfig(
        protocol="C", db_size=200,
        workload=WorkloadConfig(n_transactions=400,
                                mean_interarrival=2.0,
                                transaction_size=8, size_jitter=2,
                                read_only_fraction=0.25))
    return _shuffled(seed, [
        SimUnit(f"C/overload/r{rng_seed}",
                dataclasses.replace(config, seed=rng_seed))
        for rng_seed in replication_seeds(PCP_RUNS)])


#: Warm passes after the one cold pass of an ``exec_cache`` round.
WARM_PASSES = 4


def _exec_cache_units(seed: int) -> List[CacheUnit]:
    groups = [(size, tuple(
        single_site_config(protocol, size, n_transactions=2)
        for protocol in FIG23_PROTOCOLS)) for size in FIG23_SIZES]
    figure = tuple(config for _, group in groups for config in group)
    # Cold: one call per size group, in the seed's order, each computing
    # and storing its 30 run units.  Warm: the whole 21-config figure in
    # one call, every run unit a cache hit -- what regenerating a
    # cached figure costs.
    cold = [CacheUnit(f"cold/s{size}", group, base_seed=DEFAULT_SEED)
            for size, group in _shuffled(seed, groups)]
    return cold + [CacheUnit(f"warm{sweep}/all", figure,
                             base_seed=DEFAULT_SEED)
                   for sweep in range(1, WARM_PASSES + 1)]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list]
    #: Rounds run against a fresh on-disk result cache.
    uses_cache: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig23_grid",
             "Figure-2/3 grid (C,P,L x 7 sizes, 200 txns): the headline "
             "figure; balanced across kernel, cc, db, txn, resources",
             _fig23_units),
    Workload("fig5_grid",
             "Figure-5 grid (local,global x 7 delays): the only "
             "workload that runs dist, acquire_async and replication; "
             "kernel-heaviest",
             _fig5_units),
    Workload("pcp_overload",
             "single-site PCP at 4x overload: cc owns most host time "
             "via waiter rescans; a kernel change must not move it",
             _pcp_units),
    Workload("exec_cache",
             "21 tiny configs x 10 replications through replicate_many "
             "and the result cache, one cold and four warm passes: "
             "per-unit fixed cost of exec and core",
             _exec_cache_units, uses_cache=True),
)}
