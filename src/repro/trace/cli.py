"""``repro trace`` — inspect per-run trace artifacts.

    repro trace summarize RUN.trace.jsonl [--top N] [--json]
    repro trace export RUN.trace.jsonl -o RUN.trace.json
    repro trace validate RUN.trace.json

``summarize`` prints the per-transaction blocking-time breakdown
(direct, ceiling, inversion, network wait — summing to the measured
response time) plus the profile trailer: hottest lock objects and
longest inversion spans.  ``export`` converts a JSONL artifact to the
Chrome ``trace_event`` format; ``validate`` schema-checks an exported
Chrome document.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..constants import (BLOCKING_CEILING, BLOCKING_DIRECT,
                         BLOCKING_NETWORK, BLOCKING_OTHER)
from .export import (export_chrome, load_jsonl,
                     validate_chrome_document, validate_event_kinds)
from .timeline import RunTimeline, reconstruct


def _fmt(value: Optional[float], width: int = 9) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.3f}".rjust(width)


def summary_text(run: RunTimeline, top: Optional[int] = None) -> str:
    """The human-readable per-transaction breakdown table."""
    lines = [f"trace: {run.events_seen} events"
             + (f" ({run.dropped} dropped)" if run.dropped else "")]
    lines.append("per-transaction blocking breakdown "
                 "(virtual time units):")
    header = (f"{'tid':>5} {'site':>4} {'prio':>8} {'response':>9} "
              f"{BLOCKING_DIRECT:>9} {BLOCKING_CEILING:>9} "
              f"{BLOCKING_NETWORK:>9} "
              f"{BLOCKING_OTHER:>9} {'inversion':>9} outcome")
    lines.append(header)
    shown = 0
    for tid in sorted(run.transactions):
        timeline = run.transactions[tid]
        if top is not None and shown >= top:
            remaining = len(run.transactions) - shown
            lines.append(f"  ... and {remaining} more "
                         f"(raise --top to see them)")
            break
        shown += 1
        breakdown = timeline.breakdown()
        site = "-" if timeline.site is None else str(timeline.site)
        priority = ("-" if timeline.priority is None
                    else f"{timeline.priority:.2f}")
        outcome = timeline.outcome or "?"
        if timeline.applier:
            outcome += " (applier)"
        if breakdown is None:
            lines.append(f"{tid:>5} {site:>4} {priority:>8} "
                         f"{_fmt(None)} {_fmt(None)} {_fmt(None)} "
                         f"{_fmt(None)} {_fmt(None)} {_fmt(None)} "
                         f"{outcome}")
            continue
        lines.append(
            f"{tid:>5} {site:>4} {priority:>8} "
            f"{_fmt(breakdown['response'])} "
            f"{_fmt(breakdown[BLOCKING_DIRECT])} "
            f"{_fmt(breakdown[BLOCKING_CEILING])} "
            f"{_fmt(breakdown[BLOCKING_NETWORK])} "
            f"{_fmt(breakdown[BLOCKING_OTHER])} "
            f"{_fmt(breakdown['inversion'])} {outcome}")
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


def _load_run(artifact: str) -> RunTimeline:
    meta, events = load_jsonl(artifact)
    return reconstruct(events, dropped=int(meta.get("dropped", 0)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Summarize, export and validate trace artifacts.")
    sub = parser.add_subparsers(dest="action")

    summarize = sub.add_parser(
        "summarize", help="per-transaction blocking-time breakdown")
    summarize.add_argument("artifact", help="*.trace.jsonl artifact")
    summarize.add_argument("--top", type=int, default=None,
                           help="show at most N transactions")
    summarize.add_argument("--profile", action="store_true",
                           help="append the hot-lock/inversion trailer")
    summarize.add_argument("--json", action="store_true",
                           help="print the trace_* overlay as JSON")

    export = sub.add_parser(
        "export", help="convert a JSONL artifact to Chrome trace JSON")
    export.add_argument("artifact", help="*.trace.jsonl artifact")
    export.add_argument("-o", "--output", required=True,
                        help="destination Chrome trace JSON path")

    validate = sub.add_parser(
        "validate", help="schema-check a Chrome trace JSON document")
    validate.add_argument("document", help="*.trace.json document")

    args = parser.parse_args(argv)
    if args.action is None:
        parser.print_help(sys.stderr)
        return 2
    if args.action == "summarize" and args.top is not None \
            and args.top < 0:
        print("error: --top must be >= 0", file=sys.stderr)
        return 2
    try:
        if args.action == "summarize":
            run = _load_run(args.artifact)
            if args.json:
                print(json.dumps(run.overlay(), sort_keys=True))
            else:
                print(summary_text(run, top=args.top))
            if args.profile:
                print(profile_text(run))
            return 0
        if args.action == "export":
            meta, events = load_jsonl(args.artifact)
            problems = validate_event_kinds(events)
            if problems:
                for problem in problems:
                    print(f"error: {problem}", file=sys.stderr)
                return 1
            export_chrome(events, args.output,
                          dropped=int(meta.get("dropped", 0)))
            print(f"{args.output}: {len(events)} events exported")
            return 0
        # validate
        with open(args.document, "r", encoding="utf-8") as stream:
            document = json.load(stream)
        problems = validate_chrome_document(document)
        if problems:
            for problem in problems[:20]:
                print(f"error: {problem}", file=sys.stderr)
            if len(problems) > 20:
                print(f"error: ... and {len(problems) - 20} more",
                      file=sys.stderr)
            return 1
        count = len(document.get("traceEvents", []))
        print(f"{args.document}: OK ({count} trace events)")
        return 0
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
