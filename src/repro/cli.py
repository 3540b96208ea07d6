"""Command-line interface: regenerate any figure or ablation.

    python -m repro fig2 --replications 5 --jobs 4
    python -m repro fig5 --no-cache
    python -m repro a1 --cache-dir /tmp/repro-cache
    python -m repro all --replications 3
    python -m repro fig2 --sanitize      # run with invariant checking
    python -m repro lint                 # static lint (repro.analyze)
    python -m repro verify               # bounded model check (repro.verify)
    python -m repro validate-model --quick   # sim-vs-model divergence
    python -m repro sweep --prune-model      # analytically pruned sweep

Each command runs the corresponding sweep from :mod:`repro.bench` and
prints the text table the benchmark harness would print.  Sweeps
execute on the :mod:`repro.exec` engine: ``--jobs`` (or ``REPRO_JOBS``)
fans the seeded run units out to a process pool, and the on-disk result
cache — enabled by default under ``~/.cache/repro`` — means re-running
a figure only computes missing points.  The per-command trailer
reports how many units were computed vs served from cache.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from .bench import (format_dbsize, format_deadlock_policies,
                    format_fault_ablation,
                    format_fig2, format_fig3, format_fig4, format_fig5,
                    format_fig6, format_inheritance,
                    format_io_models, format_model_vs_sim,
                    format_protocol_suite,
                    format_rw_vs_exclusive,
                    format_snapshot_reads,
                    format_temporal, run_dbsize_sweep,
                    run_deadlock_policies, run_fault_ablation,
                    run_fig2_fig3, run_fig4,
                    run_io_models, run_model_vs_sim,
                    run_fig5, run_fig6, run_inheritance_vs_ceiling,
                    run_protocol_suite,
                    run_rw_vs_exclusive, run_snapshot_reads,
                    run_temporal_staleness)
from .protocols import REGISTRY, UnknownProtocolError
from .exec import (ResultCache, TextProgress, default_cache_dir,
                   resolve_jobs, session_counters)
from .kernel.hooks import ENV_SANITIZE


@dataclasses.dataclass(frozen=True)
class ExecOptions:
    """Engine knobs threaded from the command line into the sweeps."""

    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    progress: Optional[TextProgress] = None

    def kwargs(self) -> dict:
        return {"jobs": self.jobs, "cache": self.cache,
                "progress": self.progress}


def _fig2(replications: int, opts: ExecOptions) -> str:
    return format_fig2(run_fig2_fig3(replications=replications,
                                     **opts.kwargs()))


def _fig3(replications: int, opts: ExecOptions) -> str:
    return format_fig3(run_fig2_fig3(replications=replications,
                                     **opts.kwargs()))


def _fig23(replications: int, opts: ExecOptions) -> str:
    series = run_fig2_fig3(replications=replications, **opts.kwargs())
    return format_fig2(series) + "\n\n" + format_fig3(series)


def _fig4(replications: int, opts: ExecOptions) -> str:
    return format_fig4(run_fig4(replications=replications,
                                **opts.kwargs()))


def _fig5(replications: int, opts: ExecOptions) -> str:
    return format_fig5(run_fig5(replications=replications,
                                **opts.kwargs()))


def _fig6(replications: int, opts: ExecOptions) -> str:
    return format_fig6(run_fig6(replications=replications,
                                **opts.kwargs()))


def _a1(replications: int, opts: ExecOptions) -> str:
    return format_rw_vs_exclusive(
        run_rw_vs_exclusive(replications=replications, **opts.kwargs()))


def _a2(replications: int, opts: ExecOptions) -> str:
    return format_inheritance(
        run_inheritance_vs_ceiling(replications=replications,
                                   **opts.kwargs()))


def _a3(replications: int, opts: ExecOptions) -> str:
    return format_dbsize(run_dbsize_sweep(replications=replications,
                                          **opts.kwargs()))


def _a4(replications: int, opts: ExecOptions) -> str:
    # A4 instruments the simulation with an in-process sampler and
    # cannot fan out; engine knobs are intentionally not passed.
    return format_temporal(
        run_temporal_staleness(replications=max(1, replications // 2)))


def _a6(replications: int, opts: ExecOptions) -> str:
    return format_snapshot_reads(
        run_snapshot_reads(replications=replications, **opts.kwargs()))


def _a7(replications: int, opts: ExecOptions) -> str:
    return format_io_models(run_io_models(replications=replications,
                                          **opts.kwargs()))


def _a5(replications: int, opts: ExecOptions) -> str:
    # A5 pokes the victim policy onto a hand-built system; serial.
    return format_deadlock_policies(
        run_deadlock_policies(replications=replications))


def _a8(replications: int, opts: ExecOptions) -> str:
    return format_fault_ablation(
        run_fault_ablation(replications=replications, **opts.kwargs()))


def _model(replications: int, opts: ExecOptions) -> str:
    return format_model_vs_sim(
        run_model_vs_sim(replications=replications, **opts.kwargs()))


def _protocol_suite(replications: int, opts: ExecOptions) -> str:
    return format_protocol_suite(
        run_protocol_suite(replications=replications, **opts.kwargs()))


COMMANDS: Dict[str, Tuple[Callable[[int, ExecOptions], str], str]] = {
    "fig2": (_fig2, "Figure 2 - throughput vs transaction size"),
    "fig3": (_fig3, "Figure 3 - %% deadline-missing vs size"),
    "fig23": (_fig23, "Figures 2+3 in one sweep"),
    "fig4": (_fig4, "Figure 4 - local/global throughput ratio"),
    "fig5": (_fig5, "Figure 5 - global/local missing ratio vs delay"),
    "fig6": (_fig6, "Figure 6 - %% missing vs transaction mix"),
    "a1": (_a1, "Ablation A1 - rw vs exclusive lock semantics"),
    "a2": (_a2, "Ablation A2 - priority inheritance vs ceiling"),
    "a3": (_a3, "Ablation A3 - database size sweep"),
    "a4": (_a4, "Ablation A4 - replica staleness vs delay"),
    "a5": (_a5, "Ablation A5 - 2PL deadlock policies"),
    "a6": (_a6, "Ablation A6 - lock-free snapshot reads"),
    "a7": (_a7, "Ablation A7 - bounded disks vs parallel I/O"),
    "a8": (_a8, "Ablation A8 - fault injection: loss and crashes"),
    "model": (_model, "Analytic model vs simulation overlay"),
    "protocols": (_protocol_suite,
                  "Protocol suite - mpcp/dpcp/fmlp vs C/Cx"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the figures and ablations of Son & "
                    "Chang (ICDCS 1990).")
    choices = list(COMMANDS) + ["all", "lint", "verify", "faults",
                                "run", "trace", "metrics",
                                "bench", "validate-model", "sweep"]
    parser.add_argument("command", choices=choices,
                        help="which figure/ablation to run "
                             "('all' runs everything; 'lint' runs the "
                             "static analyzer; 'verify' explores "
                             "protocol schedules exhaustively on "
                             "small configs; 'faults' manages fault "
                             "plans; 'run' runs one distributed sweep "
                             "point; 'trace' inspects trace artifacts; "
                             "'bench' runs the hot-path microbenchmarks; "
                             "'validate-model' cross-validates the "
                             "analytic model against the simulator; "
                             "'sweep' runs a protocol/size grid, "
                             "optionally model-pruned "
                             "— see 'repro <cmd> -h')")
    parser.add_argument("--replications", type=int, default=5,
                        help="seeded runs averaged per sweep point "
                             "(paper used 10; default 5)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep's run "
                             "units (default: REPRO_JOBS or 1; 1 runs "
                             "serially in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: "
                             "REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--progress", action="store_true",
                        help="force the live progress/ETA line even "
                             "when stderr is not a TTY")
    parser.add_argument("--sanitize", action="store_true",
                        help="enable the runtime protocol sanitizer "
                             "(strict: abort on the first invariant "
                             "violation); equivalent to REPRO_SANITIZE=1")
    return parser


def _exec_options(args: argparse.Namespace) -> ExecOptions:
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    progress = None
    if args.progress or sys.stderr.isatty():
        progress = TextProgress(sys.stderr)
    return ExecOptions(jobs=args.jobs, cache=cache, progress=progress)


def _faults_main(argv: List[str]) -> int:
    """``repro faults validate plan.json`` — check a plan off-line."""
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Inspect and validate declarative fault plans.")
    sub = parser.add_subparsers(dest="action")
    validate = sub.add_parser(
        "validate", help="parse + validate a fault-plan JSON file")
    validate.add_argument("plan", help="path to the plan JSON")
    validate.add_argument("--sites", type=int, default=None,
                          help="also check crash/partition site ids "
                               "against this site count")
    args = parser.parse_args(argv)
    if args.action != "validate":
        parser.print_help(sys.stderr)
        return 2
    from .faults import load_plan
    try:
        plan = load_plan(args.plan)
        if args.sites is not None:
            plan.validate(n_sites=args.sites)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid fault plan: {exc}", file=sys.stderr)
        return 1
    print(f"{args.plan}: OK (active={plan.active}, "
          f"recovery={plan.needs_recovery}, "
          f"loss={plan.loss_rate}, jitter={plan.delay_jitter}, "
          f"dup={plan.duplicate_rate}, reorder={plan.reorder_rate}, "
          f"crashes={len(plan.crashes)}, "
          f"partitions={len(plan.partitions)})")
    return 0


def _run_main(argv: List[str]) -> int:
    """``repro run`` — one distributed configuration, optionally under
    a fault plan, averaged over seeded replications."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run the calibrated distributed configuration at "
                    "one sweep point, optionally under a fault plan.")
    parser.add_argument("--mode", choices=("local", "global", "both"),
                        default="both")
    parser.add_argument("--protocol", default="C",
                        help="concurrency-control protocol (registry "
                             "name or alias; default %(default)s)")
    parser.add_argument("--faults", default=None, metavar="PLAN.json",
                        help="fault-plan JSON to inject")
    parser.add_argument("--comm-delay", type=float, default=2.0)
    parser.add_argument("--read-only-fraction", type=float, default=0.5)
    parser.add_argument("--transactions", type=int, default=120)
    parser.add_argument("--replications", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--progress", action="store_true")
    parser.add_argument("--sanitize", action="store_true",
                        help="enable the runtime protocol sanitizer")
    parser.add_argument("--trace", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="write per-unit trace artifacts "
                             "(*.trace.jsonl + Chrome *.trace.json) "
                             "to DIR (default: <cache-dir>/traces); "
                             "disables the result cache so every unit "
                             "is re-run under the tracer")
    parser.add_argument("--profile", action="store_true",
                        help="with --trace: append the hottest-lock / "
                             "longest-inversion profile trailer")
    parser.add_argument("--metrics", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="write per-unit metrics artifacts "
                             "(*.metrics.jsonl time series) to DIR "
                             "(default: <cache-dir>/metrics); disables "
                             "the result cache so every unit is re-run "
                             "under the metrics registry")
    parser.add_argument("--engine", choices=("reference", "turbo"),
                        default="reference",
                        help="event-core engine (default "
                             "%(default)s); results are bitwise "
                             "identical, turbo is the throughput core "
                             "(REPRO_ENGINE overrides)")
    args = parser.parse_args(argv)
    if args.replications < 1 or args.transactions < 1:
        print("error: --replications and --transactions must be >= 1",
              file=sys.stderr)
        return 2
    if args.profile and args.trace is None:
        print("error: --profile requires --trace", file=sys.stderr)
        return 2
    try:
        protocol = REGISTRY.resolve(args.protocol).name
    except UnknownProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.sanitize:
        os.environ[ENV_SANITIZE] = "1"
    plan = None
    if args.faults is not None:
        from .faults import load_plan
        try:
            plan = load_plan(args.faults)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: invalid fault plan: {exc}", file=sys.stderr)
            return 1
    from .bench import distributed_config
    from .core.experiment import replicate
    opts = _exec_options(args)
    trace_dir = None
    if args.trace is not None:
        from .trace.tracer import ENV_TRACE_DIR
        trace_dir = args.trace or os.path.join(
            args.cache_dir or default_cache_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        os.environ[ENV_TRACE_DIR] = trace_dir
        # Cached rows would skip the traced re-run: force computation.
        opts = dataclasses.replace(opts, cache=None)
    metrics_dir = None
    if args.metrics is not None:
        from .telemetry.registry import ENV_METRICS_DIR
        metrics_dir = args.metrics or os.path.join(
            args.cache_dir or default_cache_dir(), "metrics")
        os.makedirs(metrics_dir, exist_ok=True)
        os.environ[ENV_METRICS_DIR] = metrics_dir
        # Cached rows would skip the metered re-run: force computation.
        opts = dataclasses.replace(opts, cache=None)
    modes = (["local", "global"] if args.mode == "both"
             else [args.mode])
    shown = ("percent_missed", "throughput", "messages_sent",
             "messages_lost", "undeliverable", "ms_dropped",
             "max_staleness", "fault_downtime", "fault_availability")
    for mode in modes:
        config = distributed_config(
            mode, args.comm_delay, args.read_only_fraction,
            n_transactions=args.transactions)
        config = dataclasses.replace(config, protocol=protocol,
                                     engine=args.engine)
        if plan is not None:
            config = dataclasses.replace(config, faults=plan)
        try:
            config.validate()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        row = replicate(config, replications=args.replications,
                        jobs=opts.jobs, cache=opts.cache,
                        progress=opts.progress)
        print(f"[{mode}] protocol={protocol} delay={args.comm_delay} "
              f"mix={args.read_only_fraction} "
              f"n={args.transactions} x{args.replications}")
        for key in shown:
            if key in row:
                print(f"  {key:<20} {row[key]:.6g}")
        for key in sorted(row):
            if key.startswith("fault_") and key not in shown \
                    and not key.endswith(("_std", "_ci95")):
                print(f"  {key:<20} {row[key]:.6g}")
        if trace_dir is not None:
            _print_trace_summary(config, trace_dir, args.profile)
        if metrics_dir is not None:
            _print_metrics_summary(config, metrics_dir)
        print()
    return 0


def _sweep_main(argv: List[str]) -> int:
    """``repro sweep`` — a protocol x size grid, optionally pruned.

    With ``--prune-model`` every grid point is scored by the analytic
    model first and only the best ``--keep-fraction`` is simulated;
    skipped points report the model's prediction, marked ``~``.
    """
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Sweep a protocol x transaction-size grid. "
                    "--prune-model scores every config analytically "
                    "(repro.model) and simulates only the top "
                    "fraction by --metric.")
    parser.add_argument("--protocols", "--protocol", dest="protocols",
                        default="C,P,L",
                        help="comma-separated protocol names or "
                             "aliases (default %(default)s); see "
                             "repro.protocols for the registry")
    parser.add_argument("--sizes", default="2,5,8,11,14,17,20",
                        help="comma-separated transaction sizes "
                             "(default %(default)s)")
    parser.add_argument("--metric", default="percent_missed",
                        help="summary metric to rank configs by "
                             "(default %(default)s)")
    parser.add_argument("--prune-model", action="store_true",
                        help="simulate only the best --keep-fraction "
                             "of the grid by the model's --metric "
                             "score; report the runs saved")
    parser.add_argument("--keep-fraction", type=float, default=0.4,
                        help="fraction of configs to simulate under "
                             "--prune-model (default %(default)s)")
    parser.add_argument("--best", choices=("min", "max"),
                        default="min",
                        help="whether lower or higher --metric scores "
                             "rank better (default %(default)s)")
    parser.add_argument("--replications", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--progress", action="store_true")
    parser.add_argument("--dashboard", action="store_true",
                        help="live multi-line TTY dashboard (unit "
                             "throughput, cache hits, host RSS, latest "
                             "summary row) plus a fleet-telemetry "
                             "trailer; degrades to plain lines off-TTY")
    parser.add_argument("--metrics", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="write per-unit metrics artifacts "
                             "(*.metrics.jsonl) to DIR (default: "
                             "<cache-dir>/metrics); disables the "
                             "result cache")
    parser.add_argument("--engine", choices=("reference", "turbo"),
                        default="reference",
                        help="event-core engine (default "
                             "%(default)s); results are bitwise "
                             "identical (REPRO_ENGINE overrides)")
    args = parser.parse_args(argv)
    if args.replications < 1:
        print("error: --replications must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 < args.keep_fraction <= 1.0:
        print("error: --keep-fraction must be in (0, 1]",
              file=sys.stderr)
        return 2
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part]
    except ValueError:
        print(f"error: --sizes must be comma-separated integers, "
              f"got {args.sizes!r}", file=sys.stderr)
        return 2
    try:
        protocols = [REGISTRY.resolve(part).name
                     for part in args.protocols.split(",") if part]
    except UnknownProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not protocols or not sizes:
        print("error: need at least one protocol and one size",
              file=sys.stderr)
        return 2
    from .bench import single_site_config
    try:
        grid = [(protocol, size,
                 dataclasses.replace(single_site_config(protocol, size),
                                     engine=args.engine))
                for protocol in protocols for size in sizes]
        for __, __, config in grid:
            config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    opts = _exec_options(args)
    if args.metrics is not None:
        from .telemetry.registry import ENV_METRICS_DIR
        sweep_metrics_dir = args.metrics or os.path.join(
            args.cache_dir or default_cache_dir(), "metrics")
        os.makedirs(sweep_metrics_dir, exist_ok=True)
        os.environ[ENV_METRICS_DIR] = sweep_metrics_dir
        # Cached rows would skip the metered re-run: force computation.
        opts = dataclasses.replace(opts, cache=None)
    fleet = None
    if args.dashboard:
        from .exec import Dashboard, FleetTelemetry
        fleet = FleetTelemetry()
        opts = dataclasses.replace(opts,
                                   progress=Dashboard(sys.stderr))
    configs = [config for __, __, config in grid]
    header = (f"{'':>1}{'protocol':>9} {'size':>5} "
              f"{args.metric:>16} {'source':>7}")
    if args.prune_model:
        from .model import run_pruned_sweep
        try:
            result = run_pruned_sweep(
                configs, metric=args.metric,
                keep_fraction=args.keep_fraction, best=args.best,
                replications=args.replications, **opts.kwargs())
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(header)
        for (protocol, size, __), row in zip(grid, result.rows):
            marker = "~" if row["pruned"] else " "
            source = "model" if row["pruned"] else "sim"
            print(f"{marker}{protocol:>9} {size:>5} "
                  f"{row[args.metric]:>16.3f} {source:>7}")
        print(f"\n[pruned {result.n_skipped}/{result.n_configs} "
              f"configs ({result.saved_fraction:.0%} of simulation "
              f"runs saved), kept top {len(result.kept)} by model "
              f"{args.metric} ({args.best})]")
        return 0
    from .core.experiment import replicate_many
    rows = replicate_many(configs, replications=args.replications,
                          fleet=fleet, **opts.kwargs())
    print(header)
    for (protocol, size, __), row in zip(grid, rows):
        if args.metric not in row:
            print(f"error: simulator summary has no metric "
                  f"{args.metric!r}", file=sys.stderr)
            return 2
        print(f" {protocol:>9} {size:>5} "
              f"{row[args.metric]:>16.3f} {'sim':>7}")
    if fleet is not None:
        from .exec import format_fleet_report
        print()
        print(format_fleet_report(fleet.report()))
    return 0


def _print_trace_summary(config, trace_dir: str,
                         profile: bool) -> None:
    """Summarize the first replication's trace artifact for one mode.

    The first unit of a ``replicate`` call runs ``config`` with seed
    ``base_seed`` (1), so its fingerprint locates its artifact.
    """
    from .exec.fingerprint import config_fingerprint
    from .trace.cli import profile_text, summary_text
    from .trace.export import load_jsonl
    from .trace.timeline import reconstruct
    fp = config_fingerprint(dataclasses.replace(config, seed=1))
    artifact = os.path.join(trace_dir, fp + ".trace.jsonl")
    if not os.path.exists(artifact):
        print(f"  (no trace artifact at {artifact})")
        return
    meta, events = load_jsonl(artifact)
    run = reconstruct(events, dropped=int(meta.get("dropped", 0)))
    print(f"[trace] first replication artifact: {artifact}")
    print(summary_text(run, top=10))
    if profile:
        print(profile_text(run))


def _print_metrics_summary(config, metrics_dir: str) -> None:
    """Summarize the first replication's metrics artifact for one mode.

    Same fingerprint convention as the trace summary: the first unit
    of a ``replicate`` call runs ``config`` with seed ``base_seed``
    (1).
    """
    from .exec.fingerprint import config_fingerprint
    from .telemetry.export import load_metrics_jsonl
    from .telemetry.export import summary_text as metrics_summary_text
    fp = config_fingerprint(dataclasses.replace(config, seed=1))
    artifact = os.path.join(metrics_dir, fp + ".metrics.jsonl")
    if not os.path.exists(artifact):
        print(f"  (no metrics artifact at {artifact})")
        return
    print(f"[metrics] first replication artifact: {artifact}")
    print(metrics_summary_text(load_metrics_jsonl(artifact)))


def main(argv: Optional[List[str]] = None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw and raw[0] == "lint":
        # Delegate everything after 'lint' to the analyzer's own parser
        # (it has its own options and exit-status contract).
        from .analyze.cli import main as lint_main
        return lint_main(raw[1:])
    if raw and raw[0] == "verify":
        from .verify.cli import main as verify_main
        return verify_main(raw[1:])
    if raw and raw[0] == "faults":
        return _faults_main(raw[1:])
    if raw and raw[0] == "trace":
        from .trace.cli import main as trace_main
        return trace_main(raw[1:])
    if raw and raw[0] == "metrics":
        from .telemetry.cli import main as metrics_main
        return metrics_main(raw[1:])
    if raw and raw[0] == "run":
        return _run_main(raw[1:])
    if raw and raw[0] == "bench":
        from .bench.micro import main as bench_main
        return bench_main(raw[1:])
    if raw and raw[0] == "validate-model":
        from .model.validate import main as validate_main
        return validate_main(raw[1:])
    if raw and raw[0] == "sweep":
        return _sweep_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.replications < 1:
        print("error: --replications must be >= 1", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.sanitize:
        # Via the environment: this process's kernels read it as they
        # are built, and process-pool workers inherit it.
        os.environ[ENV_SANITIZE] = "1"
    opts = _exec_options(args)
    names = list(COMMANDS) if args.command == "all" else [args.command]
    if args.command == "all":
        names.remove("fig2")   # fig23 covers both in one sweep
        names.remove("fig3")
    for name in names:
        runner, __ = COMMANDS[name]
        # perf_counter, not time.time: the trailer measures elapsed
        # duration, and wall clock jumps under NTP adjustment.
        started = time.perf_counter()
        before = session_counters()
        print(runner(args.replications, opts))
        delta = {key: value - before[key]
                 for key, value in session_counters().items()}
        trailer = (f"[{name}: {time.perf_counter() - started:.1f}s, "
                   f"{args.replications} replications")
        if delta["units"]:
            trailer += (f", jobs={resolve_jobs(args.jobs)}, "
                        f"{delta['units']} units, "
                        f"{delta['computed']} computed, "
                        f"{delta['cache_hits']} cache hits")
            if delta["retries"]:
                trailer += f", {delta['retries']} retried"
            if delta.get("messages_lost"):
                trailer += f", {delta['messages_lost']} msgs lost"
            if delta["failures"]:
                trailer += f", {delta['failures']} FAILED"
        print(trailer + "]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
