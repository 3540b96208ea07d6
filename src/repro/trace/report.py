"""``repro report`` — the one reader for observed-run artifacts.

    repro report ARTIFACT [--top N] [--profile] [--json]
    repro report ARTIFACT --diff OTHER
    repro report RUN.trace.jsonl --chrome OUT.json

An artifact is the JSONL of :mod:`repro.trace.export` that a traced or
metered unit, or a ``repro verify`` counterexample, leaves; its header
(never its file name) says which kind.  A trace reports the
per-transaction blocking-time breakdown (direct + ceiling + network +
other = response time) and the ``trace_*`` run totals (``--json``:
the totals alone; ``--profile``: hot locks and longest inversions;
``--chrome``: the validated Chrome ``trace_event`` document).  Metrics
report one row per series (``--json``: the rows).  ``--diff`` compares
two artifacts record by record, meta ignored (wall time and RSS differ
per run): exit 1 on any difference, the determinism check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

from ..constants import (BLOCKING_CEILING, BLOCKING_DIRECT,
                         BLOCKING_NETWORK, BLOCKING_OTHER)
from .events import TraceEvent
from .export import export_chrome, load_jsonl
from .timeline import RunTimeline, reconstruct

#: Problem lines printed before the rest are counted.
_SHOWN_PROBLEMS = 20


def kind_of(meta: dict) -> str:
    """``"trace"`` or ``"metrics"``, from an artifact's header."""
    if "trace_version" in meta:
        return "trace"
    if "metrics_version" in meta:
        return "metrics"
    raise ValueError("the header names neither trace_version nor "
                     "metrics_version")


def _more(shown: int, total: int) -> List[str]:
    if shown >= total:
        return []
    return [f"  ... and {total - shown} more (raise --top to see them)"]


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------
def _fmt(value: Optional[float], width: int = 9) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.3f}".rjust(width)


def trace_text(run: RunTimeline, top: Optional[int] = None) -> str:
    """The per-transaction breakdown table and the run totals."""
    lines = [f"trace: {run.events_seen} events"
             + (f" ({run.dropped} dropped)" if run.dropped else "")]
    lines.append("per-transaction blocking breakdown "
                 "(virtual time units):")
    lines.append(f"{'tid':>5} {'site':>4} {'prio':>8} {'response':>9} "
                 f"{BLOCKING_DIRECT:>9} {BLOCKING_CEILING:>9} "
                 f"{BLOCKING_NETWORK:>9} "
                 f"{BLOCKING_OTHER:>9} {'inversion':>9} outcome")
    tids = sorted(run.transactions)
    shown = tids if top is None else tids[:top]
    for tid in shown:
        timeline = run.transactions[tid]
        breakdown = timeline.breakdown() or {}
        site = "-" if timeline.site is None else str(timeline.site)
        priority = ("-" if timeline.priority is None
                    else f"{timeline.priority:.2f}")
        outcome = timeline.outcome or "?"
        if timeline.applier:
            outcome += " (applier)"
        cells = " ".join(_fmt(breakdown.get(key)) for key in (
            "response", BLOCKING_DIRECT, BLOCKING_CEILING,
            BLOCKING_NETWORK, BLOCKING_OTHER, "inversion"))
        lines.append(f"{tid:>5} {site:>4} {priority:>8} {cells} "
                     f"{outcome}")
    lines += _more(len(shown), len(tids))
    overlay = run.overlay()
    lines.append("run totals:")
    for key in sorted(overlay):
        value = overlay[key]
        shown_value = (f"{value:.6g}" if isinstance(value, float)
                       else str(value))
        lines.append(f"  {key:<24} {shown_value}")
    return "\n".join(lines)


def profile_text(run: RunTimeline, top: int = 5) -> str:
    """The ``--profile`` trailer: hot locks + longest inversions."""
    lines = [f"[profile] top-{top} hottest lock objects:"]
    hot = run.hot_locks(top=top)
    if not hot:
        lines.append("  (no lock waits recorded)")
    for entry in hot:
        lines.append(f"  oid={entry['oid']:<5} "
                     f"total_wait={entry['total_wait']:.3f} "
                     f"waits={entry['waits']}")
    lines.append(f"[profile] top-{top} longest inversion spans:")
    inversions = run.longest_inversions(top=top)
    if not inversions:
        lines.append("  (no priority inversions recorded)")
    for entry in inversions:
        lines.append(f"  tid={entry['tid']:<5} oid={entry['oid']:<5} "
                     f"[{entry['start']:.3f}, {entry['end']:.3f}] "
                     f"duration={entry['duration']:.3f} "
                     f"cause={entry['cause']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _labels(series: dict) -> str:
    return ",".join(f"{key}={value}" for key, value
                    in sorted(series["labels"].items()))


def _fmt_value(value) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def metrics_rows(records: List[dict]) -> List[dict]:
    """One summary row per series (``--json`` prints them)."""
    rows = []
    for series in records:
        row = {"name": series["name"], "kind": series["kind"],
               "labels": _labels(series),
               "points": len(series["points"])}
        final = series["final"]
        if series["kind"] == "histogram":
            count = final["count"]
            row["final"] = count
            row["detail"] = (
                f"count={count} sum={final['sum']:.6g} "
                + (f"mean={final['sum'] / count:.6g}" if count
                   else "mean=-"))
        else:
            row["final"] = final
            row["detail"] = f"final={_fmt_value(final)}"
        rows.append(row)
    return rows


def metrics_text(meta: dict, records: List[dict],
                 top: Optional[int] = None) -> str:
    """The per-series table under the artifact's meta."""
    rows = metrics_rows(records)
    points = sum(row["points"] for row in rows)
    lines = [f"metrics: {len(rows)} series, {points} sample points, "
             f"window={meta.get('window', '?')}"]
    for key in sorted(meta):
        if key not in ("window", "series", "metrics_version"):
            lines.append(f"  {key:<16} {meta[key]}")
    shown = rows if top is None else rows[:top]
    if shown:
        width = max(len(f"{r['name']}{{{r['labels']}}}") for r in shown)
        lines.append(f"{'series':<{width}} {'kind':<9} "
                     f"{'points':>6}  final")
        for row in shown:
            name = f"{row['name']}{{{row['labels']}}}"
            lines.append(f"{name:<{width}} {row['kind']:<9} "
                         f"{row['points']:>6}  {row['detail']}")
    lines += _more(len(shown), len(rows))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# either kind
# ----------------------------------------------------------------------
def report_text(meta: dict, records: List[dict],
                top: Optional[int] = None, profile: bool = False,
                as_json: bool = False) -> str:
    """What ``repro report`` prints for one artifact (``profile``
    applies to a trace only)."""
    if kind_of(meta) == "metrics":
        if as_json:
            return json.dumps(metrics_rows(records), sort_keys=True)
        return metrics_text(meta, records, top)
    run = reconstruct([TraceEvent.from_dict(record) for record in records],
                      dropped=int(meta.get("dropped", 0)))
    text = (json.dumps(run.overlay(), sort_keys=True) if as_json
            else trace_text(run, top))
    return text + ("\n" + profile_text(run) if profile else "")


def _label(record: dict) -> str:
    if "labels" in record:
        return f"{record['name']}{{{_labels(record)}}}"
    return (f"{record.get('kind')} tid={record.get('tid')} "
            f"at t={record.get('t')}")


def diff_records(left: List[dict], right: List[dict]) -> List[str]:
    """Record-by-record differences of two artifacts; ``[]`` means
    identical."""
    problems = [f"record {index}: {_label(one)} != {_label(two)}"
                for index, (one, two) in enumerate(zip(left, right), 1)
                if one != two]
    if len(left) != len(right):
        problems.append(f"{len(left)} records vs {len(right)}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Report, compare or export a trace or metrics "
                    "artifact; its header says which it is.")
    parser.add_argument("artifact",
                        help="*.trace.jsonl or *.metrics.jsonl artifact")
    parser.add_argument("--top", type=int, default=None,
                        help="show at most N transactions or series")
    parser.add_argument("--profile", action="store_true",
                        help="trace: append the hot-lock / inversion "
                             "trailer")
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true",
                        help="print the trace_* totals or the series "
                             "rows as JSON")
    output.add_argument("--diff", metavar="OTHER", default=None,
                        help="compare with OTHER record by record "
                             "(meta ignored); exit 1 on a difference")
    output.add_argument("--chrome", metavar="OUT", default=None,
                        help="trace: write the Chrome trace_event "
                             "document to OUT if it validates")
    args = parser.parse_args(argv)
    if args.top is not None and args.top < 0:
        print("error: --top must be >= 0", file=sys.stderr)
        return 2
    try:
        meta, records = load_jsonl(args.artifact)
        kind = kind_of(meta)
        if kind != "trace" and (args.profile or args.chrome):
            flag = "--profile" if args.profile else "--chrome"
            print(f"error: {flag} reads a trace artifact; "
                  f"{args.artifact} holds {kind}", file=sys.stderr)
            return 2
        if args.diff is not None:
            problems = diff_records(records, load_jsonl(args.diff)[1])
            done = f"identical: {len(records)} records match"
            stream = sys.stdout
        elif args.chrome is not None:
            problems = [f"error: {problem}" for problem in export_chrome(
                [TraceEvent.from_dict(record) for record in records],
                args.chrome, dropped=int(meta.get("dropped", 0)))]
            done = f"{args.chrome}: {len(records)} events exported"
            stream = sys.stderr
        else:
            print(report_text(meta, records, top=args.top,
                              profile=args.profile, as_json=args.json))
            sys.stdout.flush()  # a closed pipe raises here, not at exit
            return 0
        for problem in problems[:_SHOWN_PROBLEMS]:
            print(problem, file=stream)
        if len(problems) > _SHOWN_PROBLEMS:
            print(f"... and {len(problems) - _SHOWN_PROBLEMS} more",
                  file=stream)
        if problems:
            return 1
        print(done)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # The reader left early (`repro report A | grep -q X`): no
        # error.  Stdout goes to devnull so the exit-time flush of what
        # is still buffered cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
