"""Microbenchmarks for the simulation hot path (``repro bench``).

Every paper figure is thousands of discrete-event runs, so the per-event
cost of the kernel/lock/trace path *is* the repo's performance story.
This module prices that path directly:

- ``event_dispatch``  — raw kernel event throughput: N bare callbacks
  through ``Kernel.run``;
- ``timer_churn``     — schedule + cancel far-future timers while
  draining near events (the deadline-timer pattern; exercises the
  event-queue's dead-entry compaction);
- ``spawn_resume``    — process creation and generator resume churn;
- ``single_site_pcp`` / ``single_site_2pl`` — one seeded single-site
  run under protocols C and L (transactions/sec);
- ``dist_local`` / ``dist_global`` — one seeded distributed run per
  architecture (transactions/sec, messages included);
- ``traced_single_site`` — the PCP run again under an installed
  :class:`~repro.trace.tracer.Tracer`, pricing observability overhead;
- ``turbo_*`` — the same workloads on the turbo engine
  (:mod:`repro.kernel.turbo`).  Each pairs with a reference benchmark
  (:data:`ENGINE_PAIRS`) and reports ``engine_speedup_x``.

``run_bench`` writes ``BENCH_<timestamp>.json`` documents; the one
gate (``--max-metrics-overhead``) is a ratio within one document.
Wall time is measured with ``time.perf_counter`` — host time never
leaks into simulation state (the runs themselves are seeded and
virtual-time deterministic, which is property-tested elsewhere).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exec.host import peak_rss_kb

#: (full, quick) problem sizes per benchmark.
_SIZES = {
    "event_dispatch": (200_000, 30_000),
    "timer_churn": (60_000, 10_000),
    "spawn_resume": (2_000, 400),
    "single_site": (400, 120),
    "distributed": (150, 60),
}


# ----------------------------------------------------------------------
# the benchmark bodies: each returns the operation count it performed
# ----------------------------------------------------------------------
def _bench_event_dispatch(n: int) -> int:
    from ..kernel.kernel import Kernel
    kernel = Kernel(seed=0)
    schedule = kernel.events.schedule

    def callback() -> None:
        pass

    for i in range(n):
        schedule(float(i), callback)
    kernel.run()
    return n


def _bench_timer_churn(n: int) -> int:
    from ..kernel.kernel import Kernel
    kernel = Kernel(seed=0)
    events = kernel.events

    def callback() -> None:
        pass

    horizon = float(n) * 1e6
    for i in range(n):
        timer = events.schedule(horizon + i, callback)
        events.schedule(float(i), callback)
        events.cancel(timer)
    kernel.run(until=float(n))
    return 2 * n


def _bench_spawn_resume(n: int) -> int:
    from ..kernel.kernel import Kernel
    from ..kernel.syscalls import Delay
    yields = 10

    def body():
        for __ in range(yields):
            yield Delay(1.0)

    kernel = Kernel(seed=0)
    for i in range(n):
        kernel.spawn(body(), name=f"p{i}")
    kernel.run()
    return n * (yields + 1)


def _single_site_config(protocol: str, n_transactions: int):
    from ..core.config import SingleSiteConfig, WorkloadConfig
    return SingleSiteConfig(
        protocol=protocol, db_size=200, seed=17,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=2.0,
                                transaction_size=8, size_jitter=2,
                                read_only_fraction=0.25))


def _run_single_site(protocol: str, n: int) -> int:
    from ..core.experiment import run_single_site
    row = run_single_site(_single_site_config(protocol, n))
    return int(row["processed"])


def _bench_single_site_pcp(n: int) -> int:
    return _run_single_site("C", n)


def _bench_single_site_2pl(n: int) -> int:
    return _run_single_site("L", n)


def _distributed_config(mode: str, n_transactions: int):
    from ..core.config import (DistributedConfig, TimingConfig,
                               WorkloadConfig)
    from ..txn.manager import CostModel
    return DistributedConfig(
        mode=mode, comm_delay=1.0, db_size=120, seed=17,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.5),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))


def _run_distributed(mode: str, n: int) -> int:
    from ..core.experiment import run_distributed
    row = run_distributed(_distributed_config(mode, n))
    return int(row["processed"])


def _bench_dist_local(n: int) -> int:
    return _run_distributed("local", n)


def _bench_dist_global(n: int) -> int:
    return _run_distributed("global", n)


def _bench_traced_single_site(n: int) -> int:
    from ..core.experiment import run_single_site
    from ..trace.tracer import Tracer, tracing
    with tracing(Tracer()):
        row = run_single_site(_single_site_config("C", n))
    return int(row["processed"])


def _bench_turbo_event_dispatch(n: int) -> int:
    from ..kernel.turbo import TurboKernel
    kernel = TurboKernel(seed=0)
    schedule = kernel.events.schedule

    def callback() -> None:
        pass

    for i in range(n):
        schedule(float(i), callback)
    kernel.run()
    return n


def _bench_turbo_single_site(n: int) -> int:
    import dataclasses

    from ..core.experiment import run_single_site
    row = run_single_site(dataclasses.replace(
        _single_site_config("C", n), engine="turbo"))
    return int(row["processed"])


def _bench_metered_event_dispatch(n: int) -> int:
    from ..telemetry.registry import metering
    with metering():
        return _bench_event_dispatch(n)


def _bench_metered_single_site(n: int) -> int:
    from ..core.experiment import run_single_site
    from ..telemetry.registry import metering
    with metering():
        row = run_single_site(_single_site_config("C", n))
    return int(row["processed"])


#: Metered benchmark -> plain baseline; priced as overhead ratios and
#: gated by ``--max-metrics-overhead`` (the ISSUE's <=10% budget).
METERED_PAIRS = {"metered_event_dispatch": "event_dispatch",
                 "metered_single_site": "single_site_pcp"}

#: Turbo benchmark -> reference twin running the identical workload;
#: priced as ``engine_speedup_x`` ratios.
ENGINE_PAIRS = {"turbo_event_dispatch": "event_dispatch",
                "turbo_single_site": "single_site_pcp"}

#: name -> (size key, body).  Declaration order is report order.
BENCHMARKS: Dict[str, Tuple[str, Callable[[int], int]]] = {
    "event_dispatch": ("event_dispatch", _bench_event_dispatch),
    "timer_churn": ("timer_churn", _bench_timer_churn),
    "spawn_resume": ("spawn_resume", _bench_spawn_resume),
    "single_site_pcp": ("single_site", _bench_single_site_pcp),
    "single_site_2pl": ("single_site", _bench_single_site_2pl),
    "dist_local": ("distributed", _bench_dist_local),
    "dist_global": ("distributed", _bench_dist_global),
    "traced_single_site": ("single_site", _bench_traced_single_site),
    "metered_event_dispatch": ("event_dispatch",
                               _bench_metered_event_dispatch),
    "metered_single_site": ("single_site", _bench_metered_single_site),
    "turbo_event_dispatch": ("event_dispatch",
                             _bench_turbo_event_dispatch),
    "turbo_single_site": ("single_site", _bench_turbo_single_site),
}


def _measure(body: Callable[[int], int], size: int,
             repeats: int) -> Tuple[int, float, List[float]]:
    """Run ``body`` ``repeats`` times; return (ops, best wall, walls).

    Best-of-N is the standard microbenchmark estimator: the minimum is
    the least contaminated by scheduler noise, and every repeat does
    identical (seeded) work.
    """
    walls: List[float] = []
    ops = 0
    for __ in range(repeats):
        started = time.perf_counter()
        ops = body(size)
        walls.append(time.perf_counter() - started)
    return ops, min(walls), walls


def run_bench(quick: bool = False, only: Optional[Sequence[str]] = None,
              repeats: int = 3) -> dict:
    """Run the suite and return the benchmark document (pure data)."""
    selected = list(BENCHMARKS) if not only else list(only)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmark(s) {unknown}; expected "
                         f"a subset of {list(BENCHMARKS)}")
    results: Dict[str, dict] = {}
    for name in selected:
        size_key, body = BENCHMARKS[name]
        size = _SIZES[size_key][1 if quick else 0]
        ops, best, walls = _measure(body, size, repeats)
        rate = ops / best if best > 0 else float("inf")
        results[name] = {
            "ops": ops,
            "size": size,
            "repeats": repeats,
            "wall_s": best,
            "wall_s_all": walls,
            "ops_per_sec": rate,
            "peak_rss_kb": peak_rss_kb(),
        }
    if ("traced_single_site" in results
            and "single_site_pcp" in results):
        untraced = results["single_site_pcp"]["ops_per_sec"]
        traced = results["traced_single_site"]["ops_per_sec"]
        if traced > 0:
            results["traced_single_site"]["tracer_overhead_x"] = (
                untraced / traced)
    for metered_name, plain_name in METERED_PAIRS.items():
        if metered_name in results and plain_name in results:
            plain = results[plain_name]["ops_per_sec"]
            metered = results[metered_name]["ops_per_sec"]
            if metered > 0:
                results[metered_name]["metrics_overhead_x"] = (
                    plain / metered)
    for turbo_name, reference_name in ENGINE_PAIRS.items():
        if turbo_name in results and reference_name in results:
            reference = results[reference_name]["ops_per_sec"]
            turbo = results[turbo_name]["ops_per_sec"]
            if reference > 0:
                results[turbo_name]["engine_speedup_x"] = (
                    turbo / reference)
    import platform
    return {
        "schema": "repro-bench/1",
        # Host wall-clock provenance for the artifact name/metadata
        # only; no simulation state ever reads it.
        "timestamp": time.strftime(  # noqa: RPL001
            "%Y%m%d_%H%M%S", time.localtime()),  # noqa: RPL001
        "quick": quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": results,
    }


def write_doc(doc: dict, out_dir: str) -> str:
    """Write ``BENCH_<timestamp>.json`` under ``out_dir``; return path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{doc['timestamp']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_doc(doc: dict) -> str:
    lines = [f"repro bench — {doc['timestamp']} "
             f"(python {doc['python']}, "
             f"{'quick' if doc.get('quick') else 'full'})",
             f"{'benchmark':<20} {'ops':>10} {'wall s':>9} "
             f"{'ops/sec':>12} {'rss KB':>9}"]
    for name, entry in doc["results"].items():
        lines.append(
            f"{name:<20} {entry['ops']:>10} {entry['wall_s']:>9.4f} "
            f"{entry['ops_per_sec']:>12.0f} "
            f"{entry.get('peak_rss_kb') or 0:>9}")
    traced = doc["results"].get("traced_single_site", {})
    if "tracer_overhead_x" in traced:
        lines.append(f"tracer overhead: "
                     f"{traced['tracer_overhead_x']:.2f}x the untraced "
                     f"single-site run")
    for metered_name, plain_name in METERED_PAIRS.items():
        metered = doc["results"].get(metered_name, {})
        if "metrics_overhead_x" in metered:
            lines.append(f"metrics overhead ({metered_name}): "
                         f"{metered['metrics_overhead_x']:.2f}x the "
                         f"plain {plain_name} run")
    for turbo_name, reference_name in ENGINE_PAIRS.items():
        turbo = doc["results"].get(turbo_name, {})
        if "engine_speedup_x" in turbo:
            lines.append(f"engine speedup ({turbo_name}): "
                         f"{turbo['engine_speedup_x']:.2f}x the "
                         f"reference {reference_name} run")
    return "\n".join(lines)


def metrics_overhead_violations(doc: dict,
                                limit: float) -> List[str]:
    """Metered benchmarks whose slowdown exceeds ``limit``.

    ``limit`` is a ratio ceiling (1.10 == at most 10% slower than the
    plain baseline).  Pairs the document lacks are skipped — the gate
    only applies to what actually ran.
    """
    messages = []
    for metered_name in METERED_PAIRS:
        overhead = doc["results"].get(metered_name, {}).get(
            "metrics_overhead_x")
        if overhead is not None and overhead > limit:
            messages.append(
                f"{metered_name}: {overhead:.3f}x exceeds the "
                f"{limit:.2f}x metrics-overhead ceiling")
    return messages


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Microbenchmark the simulation hot path and emit a "
                    "BENCH_<timestamp>.json document.")
    parser.add_argument("--quick", action="store_true",
                        help="small problem sizes (CI smoke)")
    parser.add_argument("--only", default=None,
                        help="comma-separated benchmark subset "
                             f"(of: {', '.join(BENCHMARKS)})")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per benchmark; the "
                             "best (minimum) wall time is kept")
    parser.add_argument("--out", default="benchmarks",
                        help="directory for the BENCH_*.json artifact "
                             "(default: benchmarks/)")
    parser.add_argument("--no-write", action="store_true",
                        help="print the table only; write no artifact")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON document to stdout")
    parser.add_argument("--max-metrics-overhead", type=float,
                        default=None, metavar="RATIO",
                        help="fail (exit 1) when a metered benchmark "
                             "is more than RATIO x its plain baseline "
                             "(e.g. 1.10 gates at 10%% overhead)")
    parser.add_argument("--engine", choices=("reference", "turbo"),
                        default=None,
                        help="force the config-driven benchmarks "
                             "(single_site_*, dist_*) onto one engine "
                             "via REPRO_ENGINE; the turbo_*/reference "
                             "pair benchmarks pin their kernels "
                             "explicitly and are unaffected")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    if (args.max_metrics_overhead is not None
            and args.max_metrics_overhead < 1.0):
        print("error: --max-metrics-overhead must be >= 1.0",
              file=sys.stderr)
        return 2
    only = ([token.strip() for token in args.only.split(",")
             if token.strip()] if args.only else None)
    previous_engine = os.environ.get("REPRO_ENGINE")
    if args.engine is not None:
        os.environ["REPRO_ENGINE"] = args.engine
    try:
        doc = run_bench(quick=args.quick, only=only,
                        repeats=args.repeat)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.engine is not None:
            if previous_engine is None:
                del os.environ["REPRO_ENGINE"]
            else:
                os.environ["REPRO_ENGINE"] = previous_engine
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_doc(doc))
    if not args.no_write:
        path = write_doc(doc, args.out)
        print(f"\nwrote {path}", file=sys.stderr)
    if args.max_metrics_overhead is not None:
        violations = metrics_overhead_violations(
            doc, args.max_metrics_overhead)
        if violations:
            print("\nMETRICS OVERHEAD:", file=sys.stderr)
            for message in violations:
                print(f"  {message}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
