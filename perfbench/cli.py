"""Command line: ``python -m perfbench <command>``.

``run``      one workload; ``--trace 0`` prints the end-to-end metrics,
             ``--trace 1`` the per-layer metrics.  The last line of
             standard output is the result object the driver reads.
``trace``    ``run --trace 1``.
``aa``       two interleaved sets of runs of the same code (or, with
             ``--b-root``, of two checkouts): medians, gap, bound.
``compare``  the paired rule over two saved sets.
``pin``      regenerate ``digests.json`` for the default seed.
``manifest`` print what ``BENCHMARK.json`` must contain.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import List, Optional, Sequence

from . import ROOT
from .env import child_env
from .harness import DIGESTS_PATH, run_round, setup_child_main
from .metrics import (END_TO_END, PER_LAYER, RUN_SECONDS, as_result,
                      manifest)
from .run import run_traced, run_untraced
from .stats import (paired_verdict, quartile_spread, quartiles,
                    relative_gap)
from .workloads import DEFAULT_SEED, WORKLOADS

WORKLOAD_NAMES = tuple(WORKLOADS)


def _print_metrics(result: dict, metrics) -> None:
    print(f"# perfbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} units={len(result['units'])} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric in metrics:
        bound = ("" if metric.bound is None
                 else f"  bound {metric.bound:g}")
        print(f"{metric.name:32s} {result['values'][metric.name]:16.6f} "
              f"{metric.unit:10s} {metric.better} is better{bound}")
    for name, value in result["extra"].items():
        if isinstance(value, (int, float)):
            print(f"{name:32s} {value:16.6f} (recorded, not gated)")


def command_run(args: argparse.Namespace) -> int:
    if args.trace:
        result = run_traced(args.workload, args.seed)
        metrics = PER_LAYER
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
        metrics = END_TO_END
    correct = result["failed"] == 0
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        spans = result.pop("spans", None)
        if spans is not None:
            with open(os.path.join(args.out, "trace.json"), "w",
                      encoding="utf-8") as handle:
                json.dump({"workload": result["workload"],
                           "seed": result["seed"], "spans": spans},
                          handle, indent=1)
        with open(os.path.join(args.out, "result.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({**result, "correct": correct, "metrics": [
                {**vars(metric),
                 "value": result["values"][metric.name]}
                for metric in metrics]}, handle, indent=1)
    _print_metrics(result, metrics)
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": as_result(result["values"], metrics)}))
    return 0 if correct else 1


def command_pin(args: argparse.Namespace) -> int:
    pinned = {}
    for name, workload in WORKLOADS.items():
        units = workload.build(DEFAULT_SEED)
        finished = run_round(workload, units)
        if len(finished.digests) != len(units):
            print(f"perfbench pin: a unit of {name} failed",
                  file=sys.stderr)
            return 1
        pinned[name] = finished.digests
    with open(args.path, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {sum(map(len, pinned.values()))} unit digests "
          f"in {args.path}")
    return 0


# ----------------------------------------------------------------------
# aa / compare
# ----------------------------------------------------------------------
def _one_run(root: str, workload: str, seed: int,
             seconds: int) -> dict:
    command = [sys.executable, "-m", "perfbench", "run",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, env=child_env(root=root),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} (in {root}) exited "
                           f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "root": root,
            "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": result["metrics"]}


def _values(runs: Sequence[dict], workload: str,
            metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload]


def command_aa(args: argparse.Namespace) -> int:
    roots = [ROOT] + [os.path.abspath(args.b_root or ROOT)
                      for _ in range(args.sets - 1)]
    labels = [chr(ord("A") + index) for index in range(args.sets)]
    sets: List[List[dict]] = [[] for _ in roots]
    for run in range(args.runs):
        order = list(range(args.sets))
        if run % 2:
            order.reverse()        # alternate which side runs first
        for workload in args.workloads:
            for index in order:
                sets[index].append(_one_run(
                    roots[index], workload, run + 1, args.seconds))
                print(f"  [{labels[index]} run {run + 1}/{args.runs} "
                      f"{workload}] done", file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for label, runs in zip(labels, sets):
            with open(os.path.join(args.out, f"{label}.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(runs, handle, indent=1)
    print(f"A/A: {args.sets} interleaved sets x {args.runs} runs "
          f"(seeds 1..{args.runs}), {args.seconds} s of timed rounds "
          f"each; gap = how much worse the set's median is than A's")
    print("| workload | metric | " + " | ".join(
        f"median {label} (spread)" for label in labels)
        + " | worst gap | bound | ok |")
    print("|---|---|" + "---|" * (len(labels) + 3))
    failures = 0
    for workload in args.workloads:
        for metric in END_TO_END:
            columns = [_values(runs, workload, metric.name)
                       for runs in sets]
            medians = [statistics.median(values) for values in columns]
            gap = max([abs(relative_gap(medians[0], median,
                                        metric.better))
                       for median in medians[1:]] or [0.0])
            ok = gap <= metric.bound
            failures += not ok
            cells = " | ".join(
                f"{median:.4f} ({quartile_spread(values):.2%})"
                for median, values in zip(medians, columns))
            print(f"| {workload} | {metric.name} | {cells} | "
                  f"{gap:.2%} | {metric.bound:.0%} | "
                  f"{'yes' if ok else 'NO'} |")
        failed = sum(run["failed"] for runs in sets for run in runs
                     if run["workload"] == workload)
        attempted = sum(run["attempted"] for runs in sets
                        for run in runs if run["workload"] == workload)
        ok = failed == 0
        failures += not ok
        print(f"| {workload} | fail_share | {failed}/{attempted} units "
              + "| " * (len(labels) - 1)
              + f"| - | 0 | {'yes' if ok else 'NO'} |")
    return 1 if failures else 0


def command_compare(args: argparse.Namespace) -> int:
    with open(args.parent, "r", encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(args.change, "r", encoding="utf-8") as handle:
        change = json.load(handle)
    workloads = sorted({run["workload"] for run in parent},
                       key=lambda name: (WORKLOAD_NAMES + (name,)
                                         ).index(name))
    print("| workload | metric | parent median [q1, q3] | "
          "change median | change/parent (base = parent median) | "
          "pairs won | verdict |")
    print("|---|---|---|---|---|---|---|")
    regressions = 0
    for workload in workloads:
        seeds = [[run["seed"] for run in runs
                  if run["workload"] == workload]
                 for runs in (parent, change)]
        if seeds[0] != seeds[1]:
            print(f"perfbench compare: {workload}: the two sets do not "
                  f"hold the same seeds in the same order",
                  file=sys.stderr)
            return 2
        for metric in END_TO_END:
            before = _values(parent, workload, metric.name)
            after = _values(change, workload, metric.name)
            verdict, detail = paired_verdict(before, after,
                                             metric.better, metric.bound)
            regressions += verdict == "regression"
            q1, median, q3 = quartiles(before)
            ratio = (detail["change_median"] / median if median
                     else float("nan"))
            print(f"| {workload} | {metric.name} | {median:.4f} "
                  f"[{q1:.4f}, {q3:.4f}] | "
                  f"{detail['change_median']:.4f} | "
                  f"{ratio:.4f} of {median:.4f} {metric.unit} | "
                  f"{detail['wins']}/{detail['pairs']} | {verdict} |")
    return 1 if regressions else 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("run", "trace"):
        run = commands.add_parser(name)
        run.add_argument("--workload", required=True,
                         choices=WORKLOAD_NAMES)
        run.add_argument("--seed", type=int, default=1)
        run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                         help="wall seconds of timed rounds")
        run.add_argument("--trace", type=int, choices=(0, 1),
                         default=int(name == "trace"))
        run.add_argument("--out", default=None,
                         help="directory for result.json / trace.json "
                              "(nothing is written without it)")
        run.set_defaults(handler=command_run)

    aa = commands.add_parser("aa")
    aa.add_argument("--sets", type=int, default=2)
    aa.add_argument("--runs", type=int, default=5)
    aa.add_argument("--seconds", type=int, default=RUN_SECONDS)
    aa.add_argument("--workloads", nargs="+", default=WORKLOAD_NAMES,
                    choices=WORKLOAD_NAMES)
    aa.add_argument("--b-root", default=None,
                    help="run the other sets from this checkout "
                         "(pairs for `compare`)")
    aa.add_argument("--out", default=None,
                    help="directory for A.json, B.json")
    aa.set_defaults(handler=command_aa)

    compare = commands.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.set_defaults(handler=command_compare)

    pin = commands.add_parser("pin")
    pin.add_argument("--path", default=DIGESTS_PATH)
    pin.set_defaults(handler=command_pin)

    manifest = commands.add_parser("manifest")
    manifest.set_defaults(handler=command_manifest)
    return parser


def command_manifest(args: argparse.Namespace) -> int:
    print(json.dumps(manifest(), indent=2))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["setup-child"]:
        return setup_child_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.handler(args)
