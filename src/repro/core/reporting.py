"""Fixed-width tables for experiment series (the figures, as text).

The benchmarks print each figure's series as an aligned table so the
paper-vs-measured comparison in EXPERIMENTS.md can be regenerated with
one command.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: Optional[str] = None,
                 precision: int = 3) -> str:
    """Render a simple aligned text table."""
    rendered: List[List[str]] = []
    for row in rows:
        rendered.append([_cell(value, precision) for value in row])
    widths = [len(header) for header in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width "
                             f"{len(headers)}")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[index])
                           for index, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[index])
                               for index, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object, precision: int) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)
