"""Metric definitions: names, units, directions, bounds.

The single source for ``BENCHMARK.json`` (see :func:`manifest`; a test
holds the committed file to it) and for the report printers.  The
reasons and the layer -> metric -> workload predictions live in
``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from .layers import LAYERS
from .workloads import WORKLOADS

#: Seconds of timed rounds per run (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 12


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: before a change is rejected; per-layer metrics carry none.
    bound: Optional[float] = None


END_TO_END = (
    Metric("rel_cost", "slices", "lower", 0.10),
    Metric("calls_per_op", "calls/op", "lower", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("setup_s", "s", "lower", 0.10),
)


def _per_layer() -> List[Metric]:
    metrics = []
    for layer in LAYERS:
        metrics.append(Metric(f"{layer}.calls", "count", "lower"))
        metrics.append(Metric(f"{layer}.self_share", "share", "lower"))
    metrics += [
        Metric("kernel.events_dispatched", "count", "lower"),
        Metric("kernel.events_cancelled", "count", "lower"),
        Metric("kernel.events_per_op", "count/op", "lower"),
        Metric("kernel.schedule_calls", "count", "lower"),
        Metric("kernel.turbo_rel_cost", "slices", "lower"),
        Metric("kernel.turbo_speedup_x", "x", "higher"),
        Metric("cc.requests", "count", "lower"),
        Metric("cc.blocks", "count", "lower"),
        Metric("cc.immediate_grant_ratio", "ratio", "higher"),
        Metric("cc.calls_per_request", "calls/req", "lower"),
        Metric("cc.acquire_us", "us", "lower"),
        Metric("cc.release_all_calls", "count", "lower"),
        Metric("cc.release_all_us", "us", "lower"),
        Metric("db.can_grant_calls", "count", "lower"),
        Metric("db.grant_calls", "count", "lower"),
        Metric("db.can_grant_per_grant", "ratio", "lower"),
        Metric("db.release_all_calls", "count", "lower"),
        Metric("txn.processed", "count", "higher"),
        Metric("txn.committed", "count", "higher"),
        Metric("txn.restarts", "count", "lower"),
        Metric("txn.calls_per_op", "calls/op", "lower"),
        Metric("resources.calls_per_op", "calls/op", "lower"),
        Metric("dist.messages_sent", "count", "lower"),
        Metric("dist.messages_per_op", "count/op", "lower"),
        Metric("dist.calls_per_message", "calls/msg", "lower"),
        Metric("core.build_us", "us", "lower"),
        Metric("core.aggregate_us", "us", "lower"),
        Metric("exec.units", "count", "lower"),
        Metric("exec.cache_hits", "count", "higher"),
        Metric("exec.cache_writes", "count", "lower"),
        Metric("exec.fingerprint_calls", "count", "lower"),
        Metric("exec.fingerprint_us", "us", "lower"),
        Metric("exec.cold_unit_us", "us", "lower"),
        Metric("exec.warm_unit_us", "us", "lower"),
        Metric("exec.pool_speedup_x", "x", "higher"),
        Metric("exec.pool_unit_overhead_us", "us", "lower"),
        Metric("harness.rounds", "count", "higher"),
        Metric("harness.slice_cpu_s", "s", "lower"),
        Metric("harness.ref_slice_s", "s", "lower"),
        Metric("harness.rel_cost_iqr", "share", "lower"),
        Metric("harness.run_wall_s", "s", "lower"),
        Metric("harness.profile_overhead_x", "x", "lower"),
        Metric("harness.fail_share", "share", "lower"),
    ]
    return metrics


PER_LAYER = tuple(_per_layer())


def manifest() -> Dict[str, object]:
    """The content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "-m", "perfbench", "run"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit,
                       "better": m.better} for m in PER_LAYER],
    }


def as_result(values: Dict[str, float], metrics) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly ``metrics``; a value
    the run did not produce is an error, not a silent zero."""
    return {m.name: {"value": values[m.name], "unit": m.unit}
            for m in metrics}
