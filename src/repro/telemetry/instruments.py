"""Typed metric instruments: Counter, Gauge, log-bucketed Histogram.

Every instrument belongs to a :class:`~repro.telemetry.registry.
MetricsRegistry` and is identified by a name plus a sorted tuple of
``(key, value)`` label pairs.  Mutations carry the *simulated* time of
the event being measured; a mutation only updates the value, marks the
instrument dirty in the open window and notes the time.  Windows are
closed by the registry when the kernel's sampler reaches their end
(see ``MetricsRegistry.close_windows``), so the instrument layer never
schedules kernel events and never perturbs the run it observes.

Each closed window in which an instrument changed yields one sample
point; windows with no activity yield nothing (consumers forward-fill
the previous value).  All state is plain floats and lists — no RNG,
no host clock, no hashing of unordered containers — so two identical
runs produce byte-identical sample streams.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

Labels = Tuple[Tuple[str, str], ...]

#: Sampling-window width in *simulated* time units: windows are
#: [0, 50), [50, 100), ...
WINDOW = 50.0
#: Histogram upper bucket edges, 0.5 * 2**i for i < 16: 0.5 .. 16384
#: simulated time units, wide enough for lock hold times (~1) through
#: end-to-end response times (~1000s) at the paper's scale.  An
#: implicit +Inf bucket always terminates the series.
BUCKETS = tuple(0.5 * 2.0 ** i for i in range(16))


def canonical_labels(labels: Optional[Dict[str, str]] = None) -> Labels:
    """Labels as a sorted tuple of (key, value) string pairs."""
    return tuple(sorted((str(k), str(v))
                        for k, v in (labels or {}).items()))


class Instrument:
    """Common core: identity, registry link, and the sample list."""

    kind = "untyped"
    __slots__ = ("name", "help", "labels", "_registry", "samples")

    def __init__(self, registry, name: str, help: str, labels: Labels):
        self.name = name
        self.help = help
        self.labels = labels
        self._registry = registry
        #: Closed-window sample points, appended by the registry.
        self.samples: List[tuple] = []

    # The registry calls this when a window the instrument was dirty
    # in closes; ``t`` is the simulated-time window boundary.
    def _sample(self, t: float) -> None:
        raise NotImplementedError


class Counter(Instrument):
    """Monotone event count (grants, retries, drops, ...)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, registry, name: str, help: str, labels: Labels):
        super().__init__(registry, name, help, labels)
        self.value = 0.0

    def inc(self, t: float, amount: float = 1.0) -> None:
        registry = self._registry
        if t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.value += amount

    def _sample(self, t: float) -> None:
        self.samples.append((t, self.value))


class Gauge(Instrument):
    """Instantaneous level (queue depth, in-flight messages, ...)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, registry, name: str, help: str, labels: Labels):
        super().__init__(registry, name, help, labels)
        self.value = 0.0

    def set(self, t: float, value: float) -> None:
        registry = self._registry
        if t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.value = float(value)

    def inc(self, t: float, amount: float = 1.0) -> None:
        registry = self._registry
        if t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.value += amount

    def dec(self, t: float, amount: float = 1.0) -> None:
        registry = self._registry
        if t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.value -= amount

    def _sample(self, t: float) -> None:
        self.samples.append((t, self.value))


class Histogram(Instrument):
    """Log-bucketed distribution (hold times, blocking times, ...).

    Observations land in the first of :data:`BUCKETS` they do not
    exceed, or in the implicit +Inf bucket above the last edge.
    Per-bucket counts are stored *non*-cumulative.
    """

    kind = "histogram"
    __slots__ = ("counts", "sum", "count")

    def __init__(self, registry, name: str, help: str, labels: Labels):
        super().__init__(registry, name, help, labels)
        self.counts = [0] * (len(BUCKETS) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, t: float, value: float) -> None:
        registry = self._registry
        if t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.counts[bisect_left(BUCKETS, value)] += 1
        self.sum += value
        self.count += 1

    def _sample(self, t: float) -> None:
        self.samples.append((t, tuple(self.counts), self.sum, self.count))
