"""The serial executor and the bookkeeping both executors share.

Both executors take a planned unit list and produce the merged row list
**in unit order regardless of completion order**, so a parallel run is
row-for-row comparable with a serial one.  ``jobs=1`` (the default)
runs in-process — the exact call sequence the historical serial runner
made, which keeps determinism tests byte-exact — while ``jobs>1`` fans
units out to the process pool of :mod:`repro.exec.pool`, imported only
then: a serial run never loads ``concurrent.futures.process`` or
``multiprocessing``.

A unit gets one attempt.  Whatever it returns — a row, or the text of
what it raised — settles through :meth:`_Run.settle`; a raise becomes a
structured :class:`UnitFailure` and the rest of the sweep continues.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import List, Optional, Sequence, Tuple

from .cache import ResultCache
from .fingerprint import config_fingerprint, describe_config
from .units import RunUnit
from .worker import invoke_unit


@dataclasses.dataclass
class ExecutionStats:
    """The one record of a run: the counters and per-unit facts the
    progress reporter, the CLI trailer and the session counters read."""

    total: int = 0
    computed: int = 0
    cache_hits: int = 0
    failures: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    busy_time: float = 0.0
    in_flight: int = 0
    pool_restarts: int = 0
    #: Messages lost across all settled rows (fault-plan sweeps); the
    #: progress panel surfaces it so a lossy run is visibly lossy.
    messages_lost: int = 0
    #: Wall seconds of each computed unit, in settlement order (a pool
    #: task's wall is split evenly across its units).
    unit_walls: List[float] = dataclasses.field(default_factory=list)
    #: Computed units that rode in a pool task of more than one unit.
    batched_units: int = 0
    #: The most recently settled row (computed or cached).
    latest_row: Optional[dict] = None

    @property
    def done(self) -> int:
        return self.computed + self.cache_hits + self.failures

    @property
    def utilization(self) -> float:
        """Mean fraction of worker slots kept busy."""
        if self.elapsed <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.elapsed * self.jobs))


@dataclasses.dataclass(frozen=True)
class UnitFailure:
    """One unit whose run raised (or whose worker died) — the sweep
    went on."""

    index: int
    seed: int
    config: str          # describe_config() label
    error: str           # repr of the exception
    traceback: str       # formatted where it was raised

    def __str__(self) -> str:
        return f"unit #{self.index} ({self.config}) failed: {self.error}"


class ExecutionError(RuntimeError):
    """Raised by strict callers when a run has structured failures."""

    def __init__(self, failures: Sequence[UnitFailure]):
        self.failures = list(failures)
        preview = "; ".join(str(f) for f in self.failures[:3])
        extra = (f" (+{len(self.failures) - 3} more)"
                 if len(self.failures) > 3 else "")
        super().__init__(f"{len(self.failures)} unit(s) failed: "
                         f"{preview}{extra}")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit argument, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(raw) if raw else 1
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


class _Run:
    """Shared bookkeeping for one engine run (either executor)."""

    def __init__(self, units: Sequence[RunUnit],
                 cache: Optional[ResultCache], progress,
                 stats: ExecutionStats):
        self.units = list(units)
        self.cache = cache
        self.progress = progress
        self.stats = stats
        self.rows: List[Optional[dict]] = [None] * len(self.units)
        self.failures: List[UnitFailure] = []
        self.fingerprints: List[Optional[str]] = [None] * len(self.units)

    def sweep_cache(self) -> List[int]:
        """Satisfy units from cache; return the positions to run."""
        to_run: List[int] = []
        stats = self.stats
        for pos, unit in enumerate(self.units):
            if self.cache is not None:
                fp = config_fingerprint(unit.config)
                self.fingerprints[pos] = fp
                row = self.cache.get(fp)
                if row is not None:
                    self.rows[pos] = row
                    stats.cache_hits += 1
                    stats.messages_lost += int(row.get("messages_lost", 0))
                    stats.latest_row = row
                    self.progress.update(stats)
                    continue
            to_run.append(pos)
        return to_run

    def settle(self, pos: int, row: Optional[dict],
               error: Optional[Tuple[str, str]], wall: float = 0.0,
               batch: int = 1) -> None:
        """Record one unit's one attempt: its row, or its failure."""
        stats = self.stats
        if error is not None:
            unit = self.units[pos]
            self.failures.append(UnitFailure(
                index=unit.index, seed=unit.seed,
                config=describe_config(unit.config), error=error[0],
                traceback=error[1]))
            stats.failures += 1
        else:
            self.rows[pos] = row
            stats.computed += 1
            stats.messages_lost += int(row.get("messages_lost", 0))
            stats.unit_walls.append(wall)
            if batch > 1:
                stats.batched_units += 1
            stats.latest_row = row
            if self.cache is not None:
                self.cache.put(self.fingerprints[pos], row,
                               config=self.units[pos].config)
        self.progress.update(stats)


def run_serial(run: _Run, to_run: Sequence[int]) -> None:
    """In-process executor: exact historical call sequence."""
    run.stats.in_flight = 1
    for pos in to_run:
        unit = run.units[pos]
        started = time.monotonic()
        __, row, error = invoke_unit(unit.index, unit.config)
        wall = time.monotonic() - started
        run.stats.busy_time += wall
        run.settle(pos, row, error, wall)
    run.stats.in_flight = 0
