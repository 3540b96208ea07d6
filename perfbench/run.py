"""The two kinds of run: untraced (end-to-end) and traced (per-layer).

Both build the unit list from the seed, warm up, profile one round,
settle the collector, and check every unit's summary digest in every
round.  The untraced run then spends the ``--seconds`` budget on timed
rounds and takes only a call count from the profile; the traced run
records spans, charges the profile to layers, and prices the turbo
engine and the process pool on the same units.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.exec import RunUnit, run_units

from .harness import (Checker, Round, Spans, measure_setup, run_round,
                      settle, timed_rounds)
from .layers import LAYERS, Attribution, probe
from .refload import NOMINAL_SLICE_S
from .stats import quartile_spread, speed_corrected
from .workloads import WORKLOADS

#: Interleaved reference/turbo round pairs of the traced run.
ENGINE_PAIRS = 3
#: Pool-versus-serial repetitions of the traced run.
POOL_REPEATS = 3


def profiled_round(workload, units) -> Tuple[Round, Dict[tuple, tuple]]:
    """One round under the benchmark's own profiler; returns the round
    and the raw ``pstats`` table."""
    profiler = cProfile.Profile()
    finished = run_round(workload, units, profiler=profiler,
                         label="profiled-round")
    return finished, pstats.Stats(profiler).stats


def warm_up(workload, units, checker: Checker
            ) -> Tuple[Round, Dict[tuple, tuple]]:
    """What precedes the timed rounds of either kind of run.

    First every unit's system is constructed and the first unit run,
    so that no import or one-time initialisation is left for the
    profiled round to count; then the profiled round, a full pass that
    also warms the timed rounds; then :func:`settle`.

    The profiled round sits at the same early point of both kinds of
    run because call counts depend -- in the sixth digit -- on how many
    transactions the process created before (transaction ids are
    hashed): with a fixed history the count repeats exactly, and the
    traced run's per-layer calls sum to the untraced run's
    ``calls_per_op``.
    """
    for unit in units:
        unit.construct()
    run_round(workload, units[:1], label="warm-up")
    counted, stats = profiled_round(workload, units)
    checker.check(units, counted)
    settle()
    return counted, stats


def total_calls(stats: Dict[tuple, tuple]) -> int:
    return sum(entry[1] for entry in stats.values())


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    units = workload.build(seed)
    setup = measure_setup(name, seed)
    checker = Checker(name)
    counted, stats = warm_up(workload, units, checker)
    rounds, rss = timed_rounds(workload, units, seconds, checker)
    ratios = [finished.ratio for finished in rounds]
    return {
        "workload": name, "seed": seed, "trace": 0,
        "units": [unit.uid for unit in units],
        "attempted": checker.attempted, "failed": checker.failed,
        "values": {
            "rel_cost": statistics.median(ratios),
            "calls_per_op": total_calls(stats) / counted.ops,
            "peak_rss_mb": rss,
            "setup_s": setup["setup_s"],
        },
        # Recorded, never gated: raw seconds do not repeat on this host.
        "extra": {
            "fail_share": checker.fail_share,
            "harness.rounds": len(rounds),
            "harness.rel_cost_iqr": quartile_spread(ratios),
            "harness.slice_cpu_s": statistics.median(
                sum(finished.unit_s) for finished in rounds),
            "harness.ref_slice_s": statistics.median(
                statistics.fmean(finished.slice_s)
                for finished in rounds),
            "harness.setup_raw_s": setup["setup_raw_s"],
            "harness.run_wall_s": time.perf_counter() - started,
            "round_ratios": ratios,
            "rounds_raw": [{"unit_s": finished.unit_s,
                            "slice_s": finished.slice_s}
                           for finished in rounds],
        },
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def _pool_metrics(units: Sequence) -> Tuple[float, float]:
    """``(speedup, per-unit overhead in us)`` of ``run_units(jobs=2)``
    against ``jobs=1`` on the workload's own configs, wall clock."""
    configs = [config for unit in units for config in unit.exec_units()]
    plan = [RunUnit(index=i, group=i, config=config)
            for i, config in enumerate(configs)]
    walls: Dict[int, List[float]] = {1: [], 2: []}
    for _ in range(POOL_REPEATS):
        for jobs in (1, 2):
            start = time.perf_counter()
            run_units(plan, jobs=jobs, cache=False).require_success()
            walls[jobs].append(time.perf_counter() - start)
    serial = statistics.median(walls[1])
    pooled = statistics.median(walls[2])
    return serial / pooled, (pooled - serial / 2) / len(plan) * 1e6


def _per_unit_us(rounds: Sequence[Round], units: Sequence,
                 prefix: str) -> float:
    """Median over rounds of nominal-host CPU microseconds per exec
    run unit, over the calls whose uid starts with ``prefix``."""
    chosen = [index for index, unit in enumerate(units)
              if unit.uid.startswith(prefix)]
    exec_units = sum(len(units[index].exec_units()) for index in chosen)
    if not exec_units:
        return 0.0
    return statistics.median(
        speed_corrected(sum(finished.unit_s[index] for index in chosen),
                        statistics.fmean(finished.slice_s),
                        NOMINAL_SLICE_S) / exec_units * 1e6
        for finished in rounds)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Functions the traced run looks up in the profile by file and name.
PROBES = {
    "schedule": (("kernel/events.py", ("schedule", "schedule_resume",
                                       "schedule_batch")),),
    "acquire": (("cc/base.py", ("acquire", "attempt",
                                "acquire_async")),),
    "cc_release_all": (("cc/base.py", ("release_all",)),),
    "can_grant": (("db/locks.py", ("can_grant",)),),
    "grant": (("db/locks.py", ("grant",)),),
    "db_release_all": (("db/locks.py", ("release_all",)),),
    "fingerprint": (("exec/fingerprint.py", ("config_fingerprint",)),),
    "build": (("core/builder.py", ("__init__",)),
              ("dist/system.py", ("__init__",))),
    "aggregate": (("core/metrics.py", ("aggregate_runs",)),),
}


def run_traced(name: str, seed: int) -> dict:
    """Per-layer metrics of one workload, plus the span log."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    units = workload.build(seed)
    turbo_units = [unit.with_engine("turbo") for unit in units]
    checker = Checker(name)
    counted, stats = warm_up(workload, units, checker)

    spans = Spans()
    plain: List[Round] = []
    turbo: List[Round] = []
    for index in range(ENGINE_PAIRS):
        finished = run_round(workload, units, observe=True, spans=spans,
                             label=f"round-{index}")
        checker.check(units, finished)
        plain.append(finished)
        finished = run_round(workload, turbo_units)
        checker.check(units, finished)
        turbo.append(finished)
    pool_speedup, pool_overhead_us = _pool_metrics(units)

    first = plain[0]
    ops = first.ops
    attribution = Attribution(stats)
    rows = [row for result in first.results
            for row in (result if isinstance(result, list)
                        else [result])]

    def total(key: str) -> float:
        # replicate_many rows are means over their "n" replications.
        return float(sum(row.get(key, 0) * row.get("n", 1)
                         for row in rows))

    probed = {}
    profiled_slice = statistics.fmean(counted.slice_s)
    for key, targets in PROBES.items():
        calls = seconds = 0.0
        for path, names in targets:
            more_calls, more_seconds = probe(stats, path, names)
            calls += more_calls
            seconds += more_seconds
        # Nominal-host microseconds (still inflated by the profiler).
        probed[key] = (calls, speed_corrected(
            seconds, profiled_slice, NOMINAL_SLICE_S) * 1e6)

    values: Dict[str, float] = {}
    shares = attribution.self_share()
    for layer in LAYERS:
        values[f"{layer}.calls"] = attribution.calls[layer]
        values[f"{layer}.self_share"] = shares[layer]

    dispatched = sum(stat[0] for stat in first.queue_stats)
    plain_ratios = [finished.ratio for finished in plain]
    turbo_cost = statistics.median(finished.ratio for finished in turbo)
    requests = total("cc_requests")
    messages = total("messages_sent")
    exec_units = (sum(len(unit.exec_units()) for unit in units)
                  if workload.uses_cache else 0)
    values.update({
        "kernel.events_dispatched": dispatched,
        "kernel.events_cancelled": sum(stat[1]
                                       for stat in first.queue_stats),
        "kernel.events_per_op": _ratio(dispatched, ops),
        "kernel.schedule_calls": probed["schedule"][0],
        "kernel.turbo_rel_cost": turbo_cost,
        "kernel.turbo_speedup_x": _ratio(
            statistics.median(plain_ratios), turbo_cost),
        "cc.requests": requests,
        "cc.blocks": total("cc_blocks"),
        "cc.immediate_grant_ratio": _ratio(
            total("cc_immediate_grants"), requests),
        "cc.calls_per_request": _ratio(attribution.calls["cc"],
                                       requests),
        "cc.acquire_us": _ratio(probed["acquire"][1], requests),
        "cc.release_all_calls": probed["cc_release_all"][0],
        "cc.release_all_us": _ratio(probed["cc_release_all"][1],
                                    probed["cc_release_all"][0]),
        "db.can_grant_calls": probed["can_grant"][0],
        "db.grant_calls": probed["grant"][0],
        "db.can_grant_per_grant": _ratio(probed["can_grant"][0],
                                         probed["grant"][0]),
        "db.release_all_calls": probed["db_release_all"][0],
        "txn.processed": total("processed"),
        "txn.committed": total("committed"),
        "txn.restarts": total("restarts"),
        "txn.calls_per_op": _ratio(attribution.calls["txn"], ops),
        "resources.calls_per_op": _ratio(
            attribution.calls["resources"], ops),
        "dist.messages_sent": messages,
        "dist.messages_per_op": _ratio(messages, ops),
        "dist.calls_per_message": _ratio(attribution.calls["dist"],
                                         messages),
        "core.build_us": _ratio(probed["build"][1],
                                probed["build"][0]),
        "core.aggregate_us": _ratio(probed["aggregate"][1],
                                    probed["aggregate"][0]),
        "exec.units": exec_units,
        "exec.cache_hits": first.cache_hits,
        "exec.cache_writes": first.cache_writes,
        "exec.fingerprint_calls": probed["fingerprint"][0],
        "exec.fingerprint_us": _ratio(probed["fingerprint"][1],
                                      probed["fingerprint"][0]),
        "exec.cold_unit_us": _per_unit_us(plain, units, "cold/"),
        "exec.warm_unit_us": _per_unit_us(plain, units, "warm"),
        "exec.pool_speedup_x": pool_speedup,
        "exec.pool_unit_overhead_us": pool_overhead_us,
        "harness.rounds": len(plain),
        "harness.slice_cpu_s": statistics.median(
            sum(finished.unit_s) for finished in plain),
        "harness.ref_slice_s": statistics.median(
            statistics.fmean(finished.slice_s) for finished in plain),
        "harness.rel_cost_iqr": quartile_spread(plain_ratios),
        "harness.profile_overhead_x": _ratio(
            counted.ratio, statistics.median(plain_ratios)),
        "harness.fail_share": checker.fail_share,
        "harness.run_wall_s": time.perf_counter() - started,
    })
    return {
        "workload": name, "seed": seed, "trace": 1,
        "units": [unit.uid for unit in units],
        "attempted": checker.attempted, "failed": checker.failed,
        "values": values,
        "extra": {"calls_per_op": _ratio(attribution.total_calls, ops),
                  "ops": ops},
        "spans": spans.spans,
    }
