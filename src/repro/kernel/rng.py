"""Deterministic named random-number streams.

Each simulation component draws from its own stream so that changing one
component's consumption pattern (e.g. swapping the concurrency-control
protocol) does not perturb the random sequences seen by the others.  This
is the standard common-random-numbers discipline for comparing protocols
on identical workloads, and it is what lets the benchmark harness present
protocol C, P and L with *the same* arrival process.
"""

from __future__ import annotations

import random
from typing import Dict


class RngStreams:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream seed mixes the master seed with a stable hash of the
        name (Python's ``hash`` is salted per-interpreter for str, so we
        use a simple deterministic FNV-1a instead).
        """
        if name not in self._streams:
            self._streams[name] = random.Random(self.seed ^ _fnv1a(name))
        return self._streams[name]


def _fnv1a(text: str) -> int:
    """Deterministic 64-bit FNV-1a hash of a string."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value
