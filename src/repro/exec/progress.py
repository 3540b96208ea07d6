"""Progress reporting for engine runs: one panel over one stats record.

The engine calls ``start`` once, ``update`` after every unit settles
(computed, cache hit, or failed) and ``finish`` at the end, each with
the run's :class:`~repro.exec.executor.ExecutionStats` — the one record
of what the run did.  :class:`TextProgress` draws it as a throttled
panel

    [exec] 37/105 units · 12 cached · 1 failed · 8.3 u/s · ETA 8s · 4/4 workers
    host   wall 12.4s · unit mean 0.31s · unit max 0.90s · rss 84 MB
    latest seed=2017 processed=80 missed=3

redrawn in place on a TTY and written as one `` | ``-joined line per
frame otherwise, so CI logs stay readable.  Its ``finish`` frame adds
what the whole run did — worker utilization, batched units, pool
restarts and the wall-time shape of the computed units.
:class:`NullProgress` is the silent default so library calls never
print.  Reporters are pure observers: they never touch simulation
state.
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional, TextIO

from .host import peak_rss_kb

#: Summary-row keys worth surfacing as the "latest" headline, in
#: preference order (only those present in the row are shown).
_HEADLINE_KEYS = ("seed", "protocol", "mode", "processed", "committed",
                  "missed", "restarts", "success_ratio",
                  "messages_lost")


class NullProgress:
    """No-op reporter (the library default)."""

    def start(self, stats) -> None:
        pass

    def update(self, stats) -> None:
        pass

    def finish(self, stats) -> None:
        pass


class TextProgress(NullProgress):
    """Throttled live panel on ``stream``; plain lines off a TTY."""

    def __init__(self, stream: Optional[TextIO] = None,
                 min_interval: float = 0.5):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._started = 0.0
        self._last_emit = 0.0
        #: Lines of the last frame drawn (0: nothing drawn this run).
        self._drawn = 0

    def start(self, stats) -> None:
        self._started = time.monotonic()
        self._last_emit = 0.0
        self._drawn = 0

    def update(self, stats) -> None:
        now = time.monotonic()
        if now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        self._draw(_panel(stats, now - self._started))

    def finish(self, stats) -> None:
        if self._drawn:
            self._draw(_panel(stats, stats.elapsed) + _summary(stats))

    def _draw(self, lines: List[str]) -> None:
        if self.stream.isatty():
            # Back to the panel's first line, then repaint each line.
            up = f"\x1b[{self._drawn}F" if self._drawn else ""
            self.stream.write(up + "".join(f"\x1b[2K{line}\n"
                                           for line in lines))
        else:
            self.stream.write(" | ".join(lines) + "\n")
        self.stream.flush()
        self._drawn = len(lines)


def _panel(stats, elapsed: float) -> List[str]:
    done = stats.done
    parts = [f"[exec] {done}/{stats.total} units",
             f"{stats.cache_hits} cached"]
    if stats.failures:
        parts.append(f"{stats.failures} failed")
    if stats.messages_lost:
        parts.append(f"{stats.messages_lost} msgs lost")
    if elapsed > 0 and stats.computed:
        rate = stats.computed / elapsed
        parts.append(f"{rate:.1f} u/s")
        remaining = stats.total - done
        if remaining > 0:
            parts.append(f"ETA {remaining / rate:.0f}s")
    parts.append(f"{stats.in_flight}/{stats.jobs} workers")
    host = [f"wall {elapsed:.1f}s"]
    walls = stats.unit_walls
    if walls:
        host.append(f"unit mean {sum(walls) / len(walls):.2f}s")
        host.append(f"unit max {max(walls):.2f}s")
    rss = peak_rss_kb()
    if rss:
        host.append(f"rss {rss / 1024:.0f} MB")
    lines = [" · ".join(parts), "host   " + " · ".join(host)]
    row = stats.latest_row
    if row is not None:
        shown = [f"{key}={row[key]:.3g}" if isinstance(row[key], float)
                 else f"{key}={row[key]}"
                 for key in _HEADLINE_KEYS if key in row]
        if shown:
            lines.append("latest " + " ".join(shown[:6]))
    return lines


def _summary(stats) -> List[str]:
    """The finish frame's last line: what the whole run did."""
    parts = [f"utilization {stats.utilization:.0%}",
             f"{stats.batched_units} batched"]
    if stats.pool_restarts:
        parts.append(f"{stats.pool_restarts} pool restarts")
    walls = sorted(stats.unit_walls)
    if walls:
        parts.append(f"unit wall total {sum(walls):.2f}s")
        parts.append(f"p50 {walls[len(walls) // 2]:.2f}s")
    return ["run    " + " · ".join(parts)]
