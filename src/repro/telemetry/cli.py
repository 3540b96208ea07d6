"""``repro metrics`` — inspect per-run metrics artifacts.

    repro metrics summarize RUN.metrics.jsonl [--json]
    repro metrics diff LEFT.metrics.jsonl RIGHT.metrics.jsonl

``summarize`` prints the per-series table (kind, point count, final
value); ``diff`` compares two artifacts series-by-series (exit 1 on
any difference — the determinism check).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .export import (diff_documents, load_metrics_jsonl, summarize_rows,
                     summary_text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Summarize and diff metrics artifacts.")
    sub = parser.add_subparsers(dest="action")

    summarize = sub.add_parser(
        "summarize", help="per-series summary table")
    summarize.add_argument("artifact", help="*.metrics.jsonl artifact")
    summarize.add_argument("--json", action="store_true",
                           help="print summary rows as JSON")

    diff = sub.add_parser(
        "diff", help="compare two artifacts series-by-series")
    diff.add_argument("left", help="*.metrics.jsonl artifact")
    diff.add_argument("right", help="*.metrics.jsonl artifact")

    args = parser.parse_args(argv)
    if args.action is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        if args.action == "summarize":
            document = load_metrics_jsonl(args.artifact)
            if args.json:
                print(json.dumps(summarize_rows(document),
                                 sort_keys=True))
            else:
                print(summary_text(document))
            return 0
        left = load_metrics_jsonl(args.left)
        right = load_metrics_jsonl(args.right)
        problems = diff_documents(left, right)
        if problems:
            for problem in problems:
                print(problem)
            return 1
        print(f"identical: {len(left['series'])} series match")
        return 0
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
