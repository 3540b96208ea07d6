"""The serial executor and the bookkeeping both executors share.

Both executors take a planned unit list and produce the merged row list
**in unit order regardless of completion order**, so a parallel run is
row-for-row comparable with a serial one.  ``jobs=1`` (the default)
runs in-process — the exact call sequence the historical serial runner
made, which keeps determinism tests byte-exact — while ``jobs>1`` fans
units out to the process pool of :mod:`repro.exec.pool`, imported only
then: a serial run never loads ``concurrent.futures.process`` or
``multiprocessing``.

Fault tolerance: a unit whose attempt raises is retried up to
``retries`` times with exponential backoff; on exhaustion it is
recorded as a structured :class:`UnitFailure` and the rest of the sweep
continues.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback
from typing import List, Optional, Sequence, Tuple

from .cache import ResultCache
from .fingerprint import config_fingerprint, describe_config
from .units import RunUnit
from .worker import invoke_unit

#: Default retry budget per unit (attempts = retries + 1).
DEFAULT_RETRIES = 2
#: Default base backoff between attempts (seconds, doubles per retry).
DEFAULT_BACKOFF = 0.05


@dataclasses.dataclass
class ExecutionStats:
    """Counters the progress reporter and CLI summaries read."""

    total: int = 0
    computed: int = 0
    cache_hits: int = 0
    failures: int = 0
    retries: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    busy_time: float = 0.0
    in_flight: int = 0
    pool_restarts: int = 0
    #: Messages lost across all settled rows (fault-plan sweeps); the
    #: progress trailer surfaces it so a lossy run is visibly lossy.
    messages_lost: int = 0

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
    """One unit that exhausted its retries — the sweep went on."""

    index: int
    seed: int
    config: str          # describe_config() label
    attempts: int
    error: str           # repr of the final exception
    traceback: Optional[str] = None

    def __str__(self) -> str:
        return (f"unit #{self.index} ({self.config}) failed after "
                f"{self.attempts} attempt(s): {self.error}")


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


def _resolve_int(value: Optional[int], env: str, default: int) -> int:
    if value is not None:
        return value
    raw = os.environ.get(env, "").strip()
    return int(raw) if raw else default


def _format_exception(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))


def _failure(unit: RunUnit, attempts: int,
             exc: BaseException) -> UnitFailure:
    return UnitFailure(index=unit.index, seed=unit.seed,
                       config=describe_config(unit.config),
                       attempts=attempts, error=repr(exc),
                       traceback=_format_exception(exc))


class _Run:
    """Shared bookkeeping for one engine run (either executor)."""

    def __init__(self, units: Sequence[RunUnit],
                 cache: Optional[ResultCache], retries: int,
                 backoff: float, timeout: Optional[float],
                 inject: Optional[str], progress, stats: ExecutionStats,
                 fleet=None):
        self.units = list(units)
        self.cache = cache
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.inject = (inject if inject is not None
                       else os.environ.get("REPRO_EXEC_INJECT"))
        self.progress = progress
        self.stats = stats
        self.fleet = fleet
        self.rows: List[Optional[dict]] = [None] * len(self.units)
        self.failures: List[UnitFailure] = []
        self.fingerprints: List[Optional[str]] = [None] * len(self.units)

    def notify_unit(self, pos: int, wall_s: float, cached: bool,
                    batch: int = 1, failed: bool = False,
                    row: Optional[dict] = None) -> None:
        """Fan one settled unit out to progress + fleet telemetry."""
        unit = self.units[pos]
        self.progress.unit_done(unit, wall_s, cached, batch=batch,
                                failed=failed, row=row)
        if self.fleet is not None:
            self.fleet.unit_done(unit, wall_s, cached, batch=batch,
                                 failed=failed, row=row)

    # -- cache --------------------------------------------------------
    def sweep_cache(self) -> List[Tuple[int, int]]:
        """Satisfy units from cache; return (pos, attempt=0) to run."""
        to_run: List[Tuple[int, int]] = []
        for pos, unit in enumerate(self.units):
            if self.cache is not None:
                fp = config_fingerprint(unit.config)
                self.fingerprints[pos] = fp
                row = self.cache.get(fp)
                if row is not None:
                    self.rows[pos] = row
                    self.stats.cache_hits += 1
                    self.stats.messages_lost += int(
                        row.get("messages_lost", 0))
                    self.notify_unit(pos, 0.0, cached=True, row=row)
                    self.progress.update(self.stats)
                    continue
            to_run.append((pos, 0))
        return to_run

    # -- settlement ---------------------------------------------------
    def settle_success(self, pos: int, row: dict, wall: float = 0.0,
                       batch: int = 1) -> None:
        self.rows[pos] = row
        self.stats.computed += 1
        self.stats.messages_lost += int(row.get("messages_lost", 0))
        if self.cache is not None:
            self.cache.put(self.fingerprints[pos], row,
                           config=self.units[pos].config)
        self.notify_unit(pos, wall, cached=False, batch=batch, row=row)
        self.progress.update(self.stats)

    def settle_failure(self, pos: int, attempts: int,
                       exc: BaseException) -> None:
        self.failures.append(_failure(self.units[pos], attempts, exc))
        self.stats.failures += 1
        self.notify_unit(pos, 0.0, cached=False, failed=True)
        self.progress.update(self.stats)

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based), doubling."""
        return self.backoff * (2 ** max(0, attempt - 1))


def run_serial(run: _Run, to_run: Sequence[Tuple[int, int]]) -> None:
    """In-process executor: exact historical call sequence."""
    for pos, attempt in to_run:
        unit = run.units[pos]
        while True:
            started = time.monotonic()
            run.stats.in_flight = 1
            try:
                _, row = invoke_unit(unit.index, unit.config, attempt,
                                     run.inject)
            except Exception as exc:
                run.stats.busy_time += time.monotonic() - started
                if attempt >= run.retries:
                    run.settle_failure(pos, attempt + 1, exc)
                    break
                attempt += 1
                run.stats.retries += 1
                time.sleep(run.backoff_delay(attempt))
            else:
                wall = time.monotonic() - started
                run.stats.busy_time += wall
                run.settle_success(pos, row, wall=wall)
                break
        run.stats.in_flight = 0
