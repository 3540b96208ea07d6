"""``repro lint`` / ``python -m repro.analyze`` — the lint front-end.

    repro lint                      # lint the installed repro package
    repro lint src tests            # lint explicit paths
    repro lint --format json        # machine-readable findings
    repro lint --select RPL001,RPL005
    repro lint --list-rules

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from .engine import LintEngine, render_json, render_text
from .rules import DEFAULT_RULES, RULE_INDEX


def default_target() -> Path:
    """The repro package directory (works from any working directory)."""
    return Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST lint for determinism and protocol hygiene "
                    f"(rules {min(RULE_INDEX)}-{max(RULE_INDEX)}; "
                    "suppress one occurrence with '# noqa: <code>').")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: "
                             "the installed repro package)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to enable "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule index and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code, description in sorted(RULE_INDEX.items()):
            print(f"{code}  {description}")
        return 0
    select = None
    if args.select is not None:
        select = [code.strip() for code in args.select.split(",")
                  if code.strip()]
        unknown = [code for code in select
                   if code.upper() not in RULE_INDEX]
        if unknown:
            print(f"error: unknown rule code(s): {', '.join(unknown)}")
            return 2
    paths = ([Path(raw) for raw in args.paths] if args.paths
             else [default_target()])
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}")
        return 2
    engine = LintEngine(DEFAULT_RULES, select=select)
    findings = engine.check_paths(paths)
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0
