"""The function that runs inside pool workers.

:func:`invoke_unit` is a plain module-level function (so it pickles by
reference into ``concurrent.futures`` workers) that executes one seeded
configuration and returns ``(index, summary_row)``.  It also hosts the
**failure-injection hook** the fault-tolerance tests (and chaos-minded
users) drive: a spec string, passed explicitly or via
``REPRO_EXEC_INJECT``, makes selected units misbehave on selected
attempts.

Spec grammar — comma-separated clauses ``<seed>:<times>[:<mode>]``:

- ``seed``  — the unit's config seed the clause applies to;
- ``times`` — fail the first ``times`` attempts (attempts count from
  0), or ``inf`` to fail every attempt;
- ``mode``  — ``raise`` (default: raise :class:`InjectedFailure`),
  ``crash`` (``os._exit``: simulates a segfaulting worker; pool mode
  only), or ``sleep=<seconds>`` (hang: exercises the timeout path).

Example: ``REPRO_EXEC_INJECT="2001:1,3001:inf:crash"`` makes the unit
seeded 2001 fail once then succeed on retry, and the unit seeded 3001
kill its worker process on every attempt.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, Optional, Tuple


class InjectedFailure(RuntimeError):
    """Deterministic failure raised by the injection hook."""


@dataclasses.dataclass(frozen=True)
class InjectClause:
    times: float           # attempts to sabotage (inf = all)
    mode: str              # "raise" | "crash" | "sleep"
    sleep_seconds: float = 0.0


def parse_inject_spec(spec: Optional[str]) -> Dict[int, InjectClause]:
    """Parse a spec string into ``{seed: clause}``; '' / None -> {}."""
    clauses: Dict[int, InjectClause] = {}
    if not spec:
        return clauses
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad inject clause {chunk!r}; expected "
                             f"seed:times[:mode]")
        seed = int(parts[0])
        times = float("inf") if parts[1] == "inf" else int(parts[1])
        mode, sleep_seconds = "raise", 0.0
        if len(parts) == 3:
            mode = parts[2]
            if mode.startswith("sleep="):
                sleep_seconds = float(mode.split("=", 1)[1])
                mode = "sleep"
            elif mode not in ("raise", "crash"):
                raise ValueError(f"unknown inject mode {mode!r}")
        clauses[seed] = InjectClause(times=times, mode=mode,
                                     sleep_seconds=sleep_seconds)
    return clauses


def _apply_injection(seed: int, attempt: int,
                     spec: Optional[str]) -> None:
    clause = parse_inject_spec(spec).get(seed)
    if clause is None or attempt >= clause.times:
        return
    if clause.mode == "crash":
        os._exit(13)
    if clause.mode == "sleep":
        time.sleep(clause.sleep_seconds)
        return
    raise InjectedFailure(f"injected failure for seed {seed} "
                          f"(attempt {attempt})")


def execute_config(config, batch: int = 1) -> dict:
    """Run one seeded configuration and return its summary row.

    When ``REPRO_TRACE_DIR`` names a directory, the unit runs under a
    fresh :class:`~repro.trace.tracer.Tracer` and its event stream is
    written there as ``<config_fingerprint>.trace.jsonl`` plus a
    Perfetto-loadable ``<config_fingerprint>.trace.json``.  When
    ``REPRO_METRICS_DIR`` names a directory, the unit runs under a
    fresh :class:`~repro.telemetry.registry.MetricsRegistry` (window
    width from ``REPRO_METRICS_WINDOW`` when set) and its time series
    are written there as ``<config_fingerprint>.metrics.jsonl`` with
    host telemetry (wall seconds, worker peak RSS, batch size) in the
    artifact meta.  Both observers are zero-perturbation: the summary
    row is bitwise-identical either way.
    """
    # Imported lazily: repro.core.experiment itself builds on this
    # package, and worker processes should not pay the import until
    # they actually run a unit.
    from ..core import experiment
    from ..core.config import DistributedConfig, SingleSiteConfig

    if isinstance(config, SingleSiteConfig):
        runner = experiment.run_single_site
    elif isinstance(config, DistributedConfig):
        runner = experiment.run_distributed
    else:
        raise TypeError(f"unknown config type {type(config).__name__}")

    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    metrics_dir = os.environ.get("REPRO_METRICS_DIR")
    if not trace_dir and not metrics_dir:
        return runner(config)

    from ..kernel.hooks import observing
    from .fingerprint import config_fingerprint
    from .host import host_clock, peak_rss_kb

    subscribers = []
    if trace_dir:
        from ..trace.tracer import Tracer
        tracer = Tracer()
        subscribers.append(tracer)
    if metrics_dir:
        from ..telemetry.probes import probes
        from ..telemetry.registry import (DEFAULT_WINDOW,
                                          ENV_METRICS_WINDOW,
                                          MetricsRegistry)
        raw = os.environ.get(ENV_METRICS_WINDOW, "").strip()
        registry = MetricsRegistry(
            window=float(raw) if raw else DEFAULT_WINDOW)
        subscribers.extend(probes(registry))
    with observing(*subscribers):
        started = host_clock()
        row = runner(config)
        wall_s = host_clock() - started

    stem = config_fingerprint(config)
    if trace_dir:
        from ..trace.export import export_chrome, export_jsonl
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, stem)
        export_jsonl(tracer, path + ".trace.jsonl")
        export_chrome(list(tracer.events), path + ".trace.json",
                      dropped=tracer.dropped)
    if metrics_dir:
        from ..telemetry.export import write_metrics_jsonl
        registry.finalize()
        registry.meta.update({
            "fingerprint": stem,
            "seed": config.seed,
            "wall_s": wall_s,
            "peak_rss_kb": peak_rss_kb(),
            "batch": batch,
        })
        os.makedirs(metrics_dir, exist_ok=True)
        write_metrics_jsonl(registry.dump(),
                            os.path.join(metrics_dir,
                                         stem + ".metrics.jsonl"))
    return row


def invoke_unit(index: int, config, attempt: int = 0,
                inject: Optional[str] = None,
                batch: int = 1) -> Tuple[int, dict]:
    """Execute one run unit; the pool's submit target.

    Returns ``(index, row)`` so completions identify themselves
    regardless of completion order.
    """
    spec = inject if inject is not None else os.environ.get(
        "REPRO_EXEC_INJECT")
    _apply_injection(config.seed, attempt, spec)
    return index, execute_config(config, batch=batch)


def warm_worker() -> None:
    """Pool initializer: pay the simulation-stack import at worker
    start-up (overlapped with the parent still submitting) instead of
    inside the first unit's timed execution.  Matters on spawn-style
    platforms; under fork the modules are usually inherited already.
    """
    from ..core import experiment          # noqa: F401
    from ..core import config              # noqa: F401


def invoke_batch(items, inject: Optional[str] = None) -> list:
    """Execute several units in one pool task, amortizing the
    submit/pickle/result round-trip for small units.

    ``items`` is a sequence of ``(index, config, attempt)``; returns the
    ``(index, row)`` results in the same order.  Callers only batch
    units with no injection spec and no per-unit timeout, so a raise
    here aborts the whole task — the executor re-files the batch's
    units individually to attribute the failure.
    """
    return [invoke_unit(index, config, attempt, inject,
                        batch=len(items))
            for index, config, attempt in items]
