"""The reference load: a fixed-work yardstick for host speed.

Host noise on the benchmark machine is a slow multiplicative speed
factor, so the harness prices every unit of simulator work against a
*reference slice* executed right next to it.  The slice must slow down
when the simulator slows down — a tight integer spin does not, because
it never leaves the L1 cache — so it mixes the simulator's own
primitives: tuple ``heappush``/``heappop``, generator ``next``, dict
insert/pop and ``__slots__`` allocation, over a working set of a few
thousand live objects.

This module is stdlib-only and must never import ``repro``: a change to
the measured code must not be able to move the yardstick.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable

#: Loop iterations per slice (about 20 ms on the seed host).  Fixed op
#: count, never a time budget: every slice is the same work.
SLICE_OPS = 16_000

#: Seconds one slice takes on the nominal host.  ``setup_s`` is reported
#: in nominal-host seconds: ``wall * NOMINAL_SLICE_S / measured slice``.
NOMINAL_SLICE_S = 0.020


class _Cell:
    __slots__ = ("key", "value", "link")

    def __init__(self, key: int, value: int, link: object) -> None:
        self.key = key
        self.value = value
        self.link = link


def _ticker(modulus: int):
    state = 0
    while True:
        state = (state * 1103515245 + 12345) % modulus
        yield state


def reference_slice(ops: int = SLICE_OPS) -> int:
    """Run one slice; returns a checksum so the work cannot be elided."""
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    tick = _ticker(9973).__next__
    last = None
    checksum = 0
    for i in range(ops):
        key = tick()
        push(heap, (float(key), i & 3, i, None))
        last = table[i] = _Cell(key, i, last)
        if i & 1:
            entry = pop(heap)
            gone = table.pop(entry[2], None)
            if gone is not None:
                checksum += gone.key
            last = None
    while heap:
        checksum += pop(heap)[2]
    return checksum


def timed_slice(clock: Callable[[], float] = time.process_time) -> float:
    """Seconds (on ``clock``) one reference slice took."""
    start = clock()
    reference_slice()
    return clock() - start
