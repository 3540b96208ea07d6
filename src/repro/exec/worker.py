"""The functions that run inside pool workers.

:func:`invoke_unit` is a plain module-level function (so it pickles by
reference into ``concurrent.futures`` workers) that executes one seeded
configuration and returns ``(index, row, error)``.  A unit gets one
attempt: same seed, same bytes, so a unit that raised once would raise
again.  What the simulation raises is caught here and crosses back as
text — ``error`` is ``(repr, formatted traceback)`` — so an exception
whose constructor does not survive pickling reports itself like any
other, and the other units of a batched task settle normally.
"""

from __future__ import annotations

import os
import traceback
from typing import Optional, Tuple


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


def invoke_unit(index: int, config, batch: int = 1
                ) -> Tuple[int, Optional[dict], Optional[Tuple[str, str]]]:
    """Execute one run unit: ``(index, row, None)`` or, when the run
    raised, ``(index, None, (repr, traceback))``.

    The index travels with the result so completions identify
    themselves regardless of completion order.
    """
    try:
        return index, execute_config(config, batch=batch), None
    except Exception as exc:
        return index, None, (repr(exc), traceback.format_exc())


def warm_worker() -> None:
    """Pool initializer: pay the simulation-stack import at worker
    start-up (overlapped with the parent still submitting) instead of
    inside the first unit's timed execution.  Matters on spawn-style
    platforms; under fork the modules are usually inherited already.
    """
    from ..core import experiment          # noqa: F401
    from ..core import config              # noqa: F401


def invoke_batch(items) -> list:
    """Execute several ``(index, config)`` units in one pool task,
    amortizing the submit/pickle/result round-trip for small units;
    returns their :func:`invoke_unit` results in the same order."""
    return [invoke_unit(index, config, batch=len(items))
            for index, config in items]
