"""Engine facade: plan in, merged rows + structured failures out.

:func:`run_units` is the one entry point the experiment runner, the
figure/ablation sweeps, the CLI and the benchmarks all build on:

    units  = plan_batch(configs, replications=10)
    result = run_units(units, jobs=4, cache=True)
    result.require_success()          # strict callers
    rows   = result.rows              # unit order, None where failed

Knob resolution (argument beats environment beats default):

=============  ===================  ========================
knob           environment          default
=============  ===================  ========================
``jobs``       ``REPRO_JOBS``       1 (serial, in-process)
``cache``      ``REPRO_CACHE_DIR``  off (``REPRO_NO_CACHE=1``
                                    forces off)
``retries``    ``REPRO_EXEC_RETRIES``  2
=============  ===================  ========================

``backoff`` (0.05 s, doubling) and ``timeout`` (none) are arguments
only.

The module also keeps **session counters** — cumulative units /
cache hits / failures across every run in the process — which the CLI
and the benchmark harness print so warm-cache runs are visibly
recompute-free.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

from .cache import CacheSpec, ResultCache, resolve_cache
from .executor import (DEFAULT_BACKOFF, DEFAULT_RETRIES, ExecutionError,
                       ExecutionStats, UnitFailure, _Run, _resolve_int,
                       resolve_jobs, run_serial)
from .progress import NullProgress
from .units import RunUnit


@dataclasses.dataclass
class ExecutionResult:
    """Merged outcome of one engine run."""

    rows: List[Optional[dict]]
    failures: List[UnitFailure]
    stats: ExecutionStats
    #: Sweep-level fleet telemetry report (host-side wall/RSS/cache
    #: roll-up), present only when the caller passed a
    #: :class:`~repro.exec.fleet.FleetTelemetry` to :func:`run_units`.
    fleet: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def require_success(self) -> "ExecutionResult":
        """Raise :class:`ExecutionError` if any unit failed."""
        if self.failures:
            raise ExecutionError(self.failures)
        return self


#: Cumulative per-process counters (see module docstring).
_SESSION_COUNTERS: Dict[str, int] = {}


def _blank_counters() -> Dict[str, int]:
    return {"runs": 0, "units": 0, "computed": 0, "cache_hits": 0,
            "failures": 0, "retries": 0, "messages_lost": 0}


def session_counters() -> Dict[str, int]:
    """A copy of the cumulative counters for this process."""
    if not _SESSION_COUNTERS:
        _SESSION_COUNTERS.update(_blank_counters())
    return dict(_SESSION_COUNTERS)


def reset_session_counters() -> None:
    _SESSION_COUNTERS.clear()
    _SESSION_COUNTERS.update(_blank_counters())


def _accumulate(stats: ExecutionStats) -> None:
    counters = _SESSION_COUNTERS
    if not counters:
        counters.update(_blank_counters())
    counters["runs"] += 1
    counters["units"] += stats.total
    counters["computed"] += stats.computed
    counters["cache_hits"] += stats.cache_hits
    counters["failures"] += stats.failures
    counters["retries"] += stats.retries
    counters["messages_lost"] += stats.messages_lost


def run_units(units: Sequence[RunUnit], *, jobs: Optional[int] = None,
              cache: CacheSpec = None, retries: Optional[int] = None,
              backoff: Optional[float] = None,
              timeout: Optional[float] = None,
              inject: Optional[str] = None,
              progress=None, fleet=None) -> ExecutionResult:
    """Execute a planned unit list and merge rows in unit order.

    ``jobs=1`` runs serially in-process (bit-identical to the
    historical runner); ``jobs>1`` fans out to a process pool.  Rows of
    failed units are ``None``; strict callers chain
    ``.require_success()``.
    """
    units = list(units)
    jobs = resolve_jobs(jobs)
    cache_store: Optional[ResultCache] = resolve_cache(cache)
    retries = _resolve_int(retries, "REPRO_EXEC_RETRIES",
                           DEFAULT_RETRIES)
    if backoff is None:
        backoff = DEFAULT_BACKOFF
    if retries < 0:
        raise ValueError("retries must be >= 0")
    progress = progress if progress is not None else NullProgress()

    stats = ExecutionStats(total=len(units), jobs=jobs)
    run = _Run(units, cache_store, retries, backoff, timeout, inject,
               progress, stats, fleet=fleet)
    progress.start(stats)
    started = time.monotonic()
    to_run = run.sweep_cache()
    if to_run:
        if jobs == 1 or len(to_run) == 1:
            run_serial(run, to_run)
        else:
            # Here, not at import: a serial run never pays for
            # concurrent.futures.process and multiprocessing.
            from .pool import run_pool
            run_pool(run, to_run, jobs)
    stats.elapsed = time.monotonic() - started
    run.failures.sort(key=lambda failure: failure.index)
    _accumulate(stats)
    progress.finish(stats)
    return ExecutionResult(rows=run.rows, failures=run.failures,
                           stats=stats,
                           fleet=(fleet.report(stats)
                                  if fleet is not None else None))
