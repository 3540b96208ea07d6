"""Command-line interface: regenerate any figure or ablation.

    python -m repro fig2 --replications 5 --jobs 4
    python -m repro fig5 --no-cache
    python -m repro a1 --cache-dir /tmp/repro-cache
    python -m repro all --replications 3
    python -m repro fig2 --sanitize      # run with invariant checking
    python -m repro lint                 # static lint (repro.analyze)
    python -m repro verify               # bounded model check (repro.verify)
    python -m repro model                # sim vs model, error budget
    python -m repro sweep --prune-model  # analytically pruned sweep
    python -m repro -h                   # every command, once

Two tables drive it: :data:`FIGURES` (the sweep commands; one parser,
one runner) and :data:`TOOLS` (everything else, dispatched to the
module that owns the command).  Each figure command runs its spec from
:data:`repro.bench.SPECS` through the one grid runner, prints its
tables and a verdict per claim, and exits 1 if one fails.  Sweeps
execute on the :mod:`repro.exec` engine: ``--jobs`` (or ``REPRO_JOBS``)
fans the seeded run units out to a process pool, and the on-disk result
cache — enabled by default under ``~/.cache/repro`` — means re-running
a figure only computes missing points.  The per-command trailer
reports how many units were computed vs served from cache.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import os
import sys
import time
from typing import Dict, List, Optional, Tuple, Union

from . import bench
from .protocols import REGISTRY, UnknownProtocolError
from .exec import (ExecutionError, ResultCache, TextProgress,
                   default_cache_dir, resolve_jobs, session_counters)
from .exec.cache import no_cache_requested
from .kernel.hooks import ENV_SANITIZE


@dataclasses.dataclass(frozen=True)
class ExecOptions:
    """Engine knobs threaded from the command line into the sweeps."""

    jobs: Optional[int] = None
    #: A cache (memory-only under ``--no-cache``), or False for none
    #: (traced and metered runs).  Never None here: ``resolve_cache``
    #: reads None as "ask the environment", which would let
    #: ``REPRO_CACHE_DIR`` undo ``--no-cache``.
    cache: Union[ResultCache, bool] = False
    progress: Optional[TextProgress] = None

    def kwargs(self) -> dict:
        return {"jobs": self.jobs, "cache": self.cache,
                "progress": self.progress}


@dataclasses.dataclass(frozen=True)
class Figure:
    """One figure or ablation command: a sweep spec and its CLI facts."""

    spec: bench.Sweep
    help: str
    #: Runs half the requested replications.
    halved: bool = False
    #: Part of ``repro all``.
    in_all: bool = True

    @property
    def serial(self) -> bool:
        """Samples inside the simulation (A4's staleness co-process)
        and cannot fan out: the engine knobs are not passed."""
        return self.spec.sample is not None

    def render(self, replications: int,
               opts: ExecOptions) -> Tuple[list, str, int]:
        """The series, its tables and the replication count that ran."""
        if self.halved:
            replications = max(1, replications // 2)
        series = bench.run(self.spec, replications,
                           **({} if self.serial else opts.kwargs()))
        return series, bench.render(self.spec, series), replications


def _figure(name: str, help: str, **facts: bool) -> Tuple[str, Figure]:
    return name, Figure(bench.SPECS[name], help, **facts)


#: The sweep commands: a row of :data:`repro.bench.SPECS` each, plus
#: what only the front door needs.  They share one parser
#: (:func:`build_parser`) and one runner (:func:`_run_figures`);
#: declaration order is the order of ``repro all`` and of ``repro -h``.
FIGURES: Dict[str, Figure] = dict([
    # fig23 covers both in one sweep, so ``all`` skips these two.
    _figure("fig2", "Figure 2 - throughput vs transaction size",
            in_all=False),
    _figure("fig3", "Figure 3 - % deadline-missing vs size",
            in_all=False),
    _figure("fig23", "Figures 2+3 in one sweep"),
    _figure("fig4", "Figure 4 - local/global throughput ratio"),
    _figure("fig5", "Figure 5 - global/local missing ratio vs delay"),
    _figure("fig6", "Figure 6 - % missing vs transaction mix"),
    _figure("a1", "Ablation A1 - rw vs exclusive lock semantics"),
    _figure("a2", "Ablation A2 - priority inheritance vs ceiling"),
    _figure("a3", "Ablation A3 - database size sweep"),
    _figure("a4", "Ablation A4 - replica staleness vs delay",
            halved=True),
    _figure("a5", "Ablation A5 - 2PL deadlock policies"),
    _figure("a6", "Ablation A6 - lock-free snapshot reads"),
    _figure("a7", "Ablation A7 - bounded disks vs parallel I/O"),
    _figure("a8", "Ablation A8 - faulted network: loss and crashes"),
    _figure("model", "Analytic model vs simulation, error budget"),
    _figure("protocols", "Protocol suite - mpcp/dpcp/fmlp vs C/Cx"),
])

#: Every other command: name -> (module, function, one-line help).
#: ``main`` hands everything after the name to ``function(argv)`` —
#: each has its own parser and exit-status contract — and imports the
#: module only then.
TOOLS: Dict[str, Tuple[str, str, str]] = {
    "all": (".cli", "_all_main",
            "every figure and ablation above, with the same options"),
    "run": (".cli", "_run_main",
            "one distributed sweep point, optionally faulted, traced "
            "or metered"),
    "sweep": (".cli", "_sweep_main",
              "a protocol x size grid, optionally pruned by the model"),
    "faults": (".cli", "_faults_main", "validate a fault plan"),
    "trace": (".trace.cli", "main",
              "summarize, export and validate trace artifacts"),
    "metrics": (".telemetry.cli", "main",
                "summarize and diff metrics artifacts"),
    "verify": (".verify.cli", "main",
               "explore protocol schedules exhaustively on small "
               "configs"),
    "lint": (".analyze.cli", "main",
             "static analyzer (determinism and protocol hygiene)"),
    "bench": (".bench.micro", "main", "hot-path microbenchmarks"),
}


def option_block(replications: int) -> argparse.ArgumentParser:
    """The one declaration of the options every simulating command
    takes, for ``ArgumentParser(parents=[...])``."""
    block = argparse.ArgumentParser(add_help=False)
    block.add_argument("--replications", type=int, default=replications,
                       help="seeded runs averaged per sweep point "
                            "(paper used 10; default %(default)s)")
    block.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the run units "
                            "(default: REPRO_JOBS or 1; 1 runs "
                            "serially in-process)")
    block.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: "
                            "REPRO_CACHE_DIR or ~/.cache/repro)")
    block.add_argument("--no-cache", action="store_true",
                       help="no on-disk result cache; a unit repeated "
                            "within one invocation is computed once")
    block.add_argument("--progress", action="store_true",
                       help="draw the live progress panel (units, "
                            "ETA, host RSS, latest row; utilization "
                            "and unit walls when the run ends) even "
                            "when stderr is not a TTY")
    block.add_argument("--sanitize", action="store_true",
                       help="enable the runtime protocol sanitizer "
                            "(strict: abort on the first invariant "
                            "violation); equivalent to REPRO_SANITIZE=1")
    return block


#: What the running command switched on for its duration: the
#: sanitizer and the variables its workers inherit.  :func:`main`
#: unwinds it on return, so a command leaves its process as it found it.
_COMMAND = contextlib.ExitStack()


def _set_for_command(name: str, value: str) -> None:
    """Set an environment variable until :func:`main` returns."""
    previous = os.environ.get(name)
    if previous is None:
        _COMMAND.callback(os.environ.pop, name, None)
    else:
        _COMMAND.callback(os.environ.__setitem__, name, previous)
    os.environ[name] = value


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def exec_options(args: argparse.Namespace) -> Optional[ExecOptions]:
    """Validate and apply an :func:`option_block` namespace.

    Returns None, having printed the one-line error, when a count is
    out of range (the caller exits 2).
    """
    for flag in ("replications", "jobs"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            _usage_error(f"--{flag} must be >= 1")
            return None
    if args.sanitize:
        # This process's kernels observe through the scoped sanitizer;
        # process-pool workers inherit the variable.
        from .analyze.sanitizer import sanitize
        _COMMAND.enter_context(sanitize(strict=True))
        _set_for_command(ENV_SANITIZE, "1")
    # ``--no-cache`` keeps the memory tier: a unit that several specs
    # of one invocation share is computed once, and nothing is written.
    cache = ResultCache(
        None if args.no_cache or no_cache_requested()
        else args.cache_dir or default_cache_dir())
    progress = None
    if args.progress or sys.stderr.isatty():
        progress = TextProgress(sys.stderr)
    return ExecOptions(jobs=args.jobs, cache=cache, progress=progress)


def build_parser() -> argparse.ArgumentParser:
    def listing(rows) -> str:
        return "\n".join(f"  {name:<16}{text}" for name, text in rows)

    parser = argparse.ArgumentParser(
        prog="repro", parents=[option_block(5)],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Regenerate the figures and ablations of Son & Chang "
            "(ICDCS 1990).\n\n"
            "figures and ablations (they take the options below):\n"
            + listing((name, figure.help)
                      for name, figure in FIGURES.items())
            + "\n\nother commands (options go after the name: "
              "repro <command> -h):\n"
            + listing((name, text)
                      for name, (__, __, text) in TOOLS.items())))
    parser.add_argument("command", choices=[*FIGURES, *TOOLS],
                        metavar="command",
                        help="one of the commands listed above")
    return parser


def _run_figures(names: List[str], args: argparse.Namespace) -> int:
    opts = exec_options(args)
    if opts is None:
        return 2
    status = 0
    for name in names:
        # perf_counter, not time.time: the trailer measures elapsed
        # duration, and wall clock jumps under NTP adjustment.
        started = time.perf_counter()
        before = session_counters()
        figure = FIGURES[name]
        series, text, replications = figure.render(args.replications,
                                                   opts)
        lines, held = bench.verdicts(figure.spec, series)
        print("\n".join([text, *lines]))
        if not held:
            status = 1
        delta = {key: value - before[key]
                 for key, value in session_counters().items()}
        trailer = (f"[{name}: {time.perf_counter() - started:.1f}s, "
                   f"{replications} replications")
        if delta["units"]:
            trailer += (f", jobs={resolve_jobs(args.jobs)}, "
                        f"{delta['units']} units, "
                        f"{delta['computed']} computed, "
                        f"{delta['cache_hits']} cache hits")
            if delta["messages_lost"]:
                trailer += f", {delta['messages_lost']} msgs lost"
        print(trailer + "]")
        print()
    return status


def _all_main(argv: List[str]) -> int:
    """``repro all`` — every figure the table marks ``in_all``."""
    return _run_figures(
        [name for name, figure in FIGURES.items() if figure.in_all],
        build_parser().parse_args(["all"] + argv))


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


def _observed(directory: Optional[str], subdir: str, env_var: str,
              args: argparse.Namespace,
              opts: ExecOptions) -> Tuple[Optional[str], ExecOptions]:
    """Activate ``--trace [DIR]`` / ``--metrics [DIR]`` for every unit.

    ``directory`` is the flag's value: None when absent, empty for the
    default ``<cache-dir>/<subdir>``.  Workers find the directory in
    ``env_var``; the cache is dropped, because a cached row would skip
    the observed re-run.
    """
    if directory is None:
        return None, opts
    directory = directory or os.path.join(
        args.cache_dir or default_cache_dir(), subdir)
    os.makedirs(directory, exist_ok=True)
    _set_for_command(env_var, directory)
    return directory, dataclasses.replace(opts, cache=False)


def _run_main(argv: List[str]) -> int:
    """``repro run`` — one distributed configuration, optionally under
    a fault plan, averaged over seeded replications."""
    parser = argparse.ArgumentParser(
        prog="repro run", parents=[option_block(3)],
        description="Run the calibrated distributed configuration at "
                    "one sweep point, optionally under a fault plan.")
    parser.add_argument("--mode", choices=("local", "global", "both"),
                        default="both")
    parser.add_argument("--protocol", default="C",
                        help="concurrency-control protocol (registry "
                             "name or alias; default %(default)s)")
    parser.add_argument("--faults", default=None, metavar="PLAN.json",
                        help="fault-plan JSON to run under")
    parser.add_argument("--comm-delay", type=float, default=2.0)
    parser.add_argument("--read-only-fraction", type=float, default=0.5)
    parser.add_argument("--transactions", type=int, default=120)
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
    if args.transactions < 1:
        return _usage_error("--transactions must be >= 1")
    if args.profile and args.trace is None:
        return _usage_error("--profile requires --trace")
    try:
        protocol = REGISTRY.resolve(args.protocol).name
    except UnknownProtocolError as exc:
        return _usage_error(str(exc))
    opts = exec_options(args)
    if opts is None:
        return 2
    plan = None
    if args.faults is not None:
        from .faults import load_plan
        try:
            plan = load_plan(args.faults)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: invalid fault plan: {exc}", file=sys.stderr)
            return 1
    from .core.experiment import replicate
    from .telemetry.registry import ENV_METRICS_DIR
    from .trace.tracer import ENV_TRACE_DIR
    trace_dir, opts = _observed(args.trace, "traces", ENV_TRACE_DIR,
                                args, opts)
    metrics_dir, opts = _observed(args.metrics, "metrics",
                                  ENV_METRICS_DIR, args, opts)
    modes = (["local", "global"] if args.mode == "both"
             else [args.mode])
    shown = ("percent_missed", "throughput", "messages_sent",
             "messages_lost", "undeliverable", "ms_dropped",
             "max_staleness", "fault_downtime", "fault_availability")
    for mode in modes:
        config = bench.distributed_config(
            mode, args.comm_delay, args.read_only_fraction,
            n_transactions=args.transactions)
        config = dataclasses.replace(config, protocol=protocol,
                                     engine=args.engine)
        if plan is not None:
            config = dataclasses.replace(config, faults=plan)
        try:
            config.validate()
        except ValueError as exc:
            return _usage_error(str(exc))
        row = replicate(config, replications=args.replications,
                        **opts.kwargs())
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
        prog="repro sweep", parents=[option_block(5)],
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
                             "score (and every config of a protocol "
                             "the model is not validated for); report "
                             "the runs saved")
    parser.add_argument("--keep-fraction", type=float, default=0.4,
                        help="fraction of configs to simulate under "
                             "--prune-model (default %(default)s)")
    parser.add_argument("--best", choices=("min", "max"),
                        default="min",
                        help="whether lower or higher --metric scores "
                             "rank better (default %(default)s)")
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
    if not 0.0 < args.keep_fraction <= 1.0:
        return _usage_error("--keep-fraction must be in (0, 1]")
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part]
    except ValueError:
        return _usage_error(f"--sizes must be comma-separated "
                            f"integers, got {args.sizes!r}")
    try:
        protocols = [REGISTRY.resolve(part).name
                     for part in args.protocols.split(",") if part]
    except UnknownProtocolError as exc:
        return _usage_error(str(exc))
    if not protocols or not sizes:
        return _usage_error("need at least one protocol and one size")
    try:
        grid = [(protocol, size,
                 dataclasses.replace(
                     bench.single_site_config(protocol, size),
                     engine=args.engine))
                for protocol in protocols for size in sizes]
        for __, __, config in grid:
            config.validate()
    except ValueError as exc:
        return _usage_error(str(exc))
    opts = exec_options(args)
    if opts is None:
        return 2
    from .telemetry.registry import ENV_METRICS_DIR
    __, opts = _observed(args.metrics, "metrics", ENV_METRICS_DIR,
                         args, opts)
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
            return _usage_error(exc.args[0])
        print(header)
        for (protocol, size, __), row in zip(grid, result.rows):
            marker = "~" if row["pruned"] else " "
            source = "model" if row["pruned"] else "sim"
            print(f"{marker}{protocol:>9} {size:>5} "
                  f"{row[args.metric]:>16.3f} {source:>7}")
        ranked = len(result.kept) - len(result.unprunable)
        unprunable = (f", {len(result.unprunable)} unprunable"
                      if result.unprunable else "")
        print(f"\n[pruned {result.n_skipped}/{result.n_configs} "
              f"configs ({result.saved_fraction:.0%} of simulation "
              f"runs saved), kept top {ranked} by model "
              f"{args.metric} ({args.best}){unprunable}]")
        return 0
    from .core.experiment import replicate_many
    rows = replicate_many(configs, replications=args.replications,
                          **opts.kwargs())
    if args.metric not in rows[0]:
        return _usage_error(f"simulator summary has no metric "
                            f"{args.metric!r}")
    print(header)
    for (protocol, size, __), row in zip(grid, rows):
        print(f" {protocol:>9} {size:>5} "
              f"{row[args.metric]:>16.3f} {'sim':>7}")
    return 0


def _first_artifact(kind: str, config, directory: str) -> Optional[str]:
    """Path of the first replication's ``kind`` artifact, announced.

    The first unit of a ``replicate`` call runs ``config`` with seed
    ``base_seed`` (1), so its fingerprint locates its artifact.
    """
    from .exec.fingerprint import config_fingerprint
    fp = config_fingerprint(dataclasses.replace(config, seed=1))
    artifact = os.path.join(directory, f"{fp}.{kind}.jsonl")
    if not os.path.exists(artifact):
        print(f"  (no {kind} artifact at {artifact})")
        return None
    print(f"[{kind}] first replication artifact: {artifact}")
    return artifact


def _print_trace_summary(config, trace_dir: str,
                         profile: bool) -> None:
    """Summarize the first replication's trace artifact for one mode."""
    from .trace.cli import profile_text, summary_text
    from .trace.export import load_jsonl
    from .trace.timeline import reconstruct
    artifact = _first_artifact("trace", config, trace_dir)
    if artifact is None:
        return
    meta, events = load_jsonl(artifact)
    run = reconstruct(events, dropped=int(meta.get("dropped", 0)))
    print(summary_text(run, top=10))
    if profile:
        print(profile_text(run))


def _print_metrics_summary(config, metrics_dir: str) -> None:
    """Summarize the first replication's metrics artifact for one mode."""
    from .telemetry.export import load_metrics_jsonl, summary_text
    artifact = _first_artifact("metrics", config, metrics_dir)
    if artifact is not None:
        print(summary_text(load_metrics_jsonl(artifact)))


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch one command; a run with failed units prints the first
    failure's worker traceback under one ``error:`` line and exits 1.
    Whatever the command activated ends with it."""
    raw = sys.argv[1:] if argv is None else list(argv)
    with _COMMAND:
        try:
            if raw and raw[0] in TOOLS:
                module, function, __ = TOOLS[raw[0]]
                runner = getattr(importlib.import_module(
                    module, __package__), function)
                return runner(raw[1:])
            parser = build_parser()
            args = parser.parse_args(raw)
            if args.command in TOOLS:
                parser.error(f"{args.command!r} takes its own options: "
                             f"put it first ('repro {args.command} -h')")
            return _run_figures([args.command], args)
        except ExecutionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(exc.failures[0].traceback, end="", file=sys.stderr)
            return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
