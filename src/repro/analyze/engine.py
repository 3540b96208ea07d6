"""The static-lint engine: file discovery, rule dispatch, suppression.

The engine is deliberately tiny — it parses each file once, hands the
AST to every registered rule, and filters the resulting findings
through ``# noqa`` suppression comments:

- ``# noqa`` on a line suppresses every finding on that line;
- ``# noqa: RPL001`` (or a comma-separated list) suppresses only the
  named codes.

Rules are plain objects with a ``code``, the ``codes`` they report,
an ``applies_to(path)`` scope and a ``check(tree, path) ->
Iterable[Finding]`` method (see :mod:`repro.analyze.rules`).  The
engine knows nothing about what any rule looks for, which keeps adding
a rule a one-file change.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Optional, Sequence

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?",
                      re.IGNORECASE)
#: Valid code tokens inside a noqa list ("RPL001"); anything else in
#: the captured span (trailing prose like "because reasons") is not a
#: code and must not end up in the suppression set.
_CODE_TOKEN_RE = re.compile(r"[A-Za-z]+\d+")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint violation, pointing at a source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def format_text(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.code} {self.message}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _suppressed_codes(source_line: str) -> Optional[frozenset]:
    """Codes suppressed on this line: frozenset() means *all* codes."""
    match = _NOQA_RE.search(source_line)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return frozenset()  # bare "# noqa": everything
    # Split on commas, then keep only well-formed code tokens: the
    # captured span is greedy enough to swallow trailing prose
    # ("# noqa: RPL001 because reasons"), which must suppress RPL001,
    # not look for a code named "RPL001 BECAUSE REASONS".
    tokens = []
    for part in codes.split(","):
        found = _CODE_TOKEN_RE.findall(part)
        if found:
            tokens.append(found[0].upper())
    return frozenset(tokens)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" in candidate.parts:
                    continue
                yield candidate
        elif path.suffix == ".py":
            yield path


class LintEngine:
    """Runs a rule set over source trees and collects findings."""

    def __init__(self, rules: Sequence[Any],
                 select: Optional[Iterable[str]] = None):
        self.selected = (None if select is None
                         else {code.upper() for code in select})
        self.rules = [rule for rule in rules
                      if self.selected is None
                      or self.selected.intersection(rule.codes)]

    # ------------------------------------------------------------------
    def check_source(self, source: str, path: str) -> List[Finding]:
        """Lint one in-memory module; ``path`` labels the findings."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            line = error.lineno or 1
            col = (error.offset or 1) - 1
            return [Finding("RPL000", path, line, max(col, 0),
                            f"syntax error: {error.msg}")]
        findings: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(path):
                continue
            findings.extend(
                finding for finding in rule.check(tree, path)
                if self.selected is None
                or finding.code in self.selected)
        return self._apply_noqa(findings, source.splitlines())

    def check_file(self, path: Path) -> List[Finding]:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            return [Finding("RPL000", str(path), 1, 0,
                            f"unreadable file: {error}")]
        return self.check_source(source, str(path))

    def check_paths(self, paths: Sequence[Path]) -> List[Finding]:
        findings: List[Finding] = []
        for path in iter_python_files(paths):
            findings.extend(self.check_file(path))
        return sorted(findings,
                      key=lambda f: (f.path, f.line, f.col, f.code))

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_noqa(findings: List[Finding],
                    lines: List[str]) -> List[Finding]:
        kept = []
        for finding in findings:
            index = finding.line - 1
            if 0 <= index < len(lines):
                suppressed = _suppressed_codes(lines[index])
                if suppressed is not None and (
                        not suppressed or finding.code in suppressed):
                    continue
            kept.append(finding)
        return kept


def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "no findings"
    body = "\n".join(finding.format_text() for finding in findings)
    noun = "finding" if len(findings) == 1 else "findings"
    return f"{body}\n{len(findings)} {noun}"


def render_json(findings: Sequence[Finding]) -> str:
    return json.dumps([finding.as_dict() for finding in findings],
                      indent=2, sort_keys=True)
