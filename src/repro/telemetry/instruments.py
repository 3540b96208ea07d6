"""Typed metric instruments: Counter, Gauge, log-bucketed Histogram.

Every instrument belongs to a :class:`~repro.telemetry.registry.
MetricsRegistry` and is identified by a name plus a sorted tuple of
``(key, value)`` label pairs.  Mutations carry the *simulated* time of
the event being measured; the registry uses it to close elapsed
sampling windows lazily (see ``MetricsRegistry._tick``), so the
instrument layer never schedules kernel events and never perturbs the
run it observes.

Each closed window in which an instrument changed yields one sample
point; windows with no activity yield nothing (consumers forward-fill
the previous value).  All state is plain floats and lists — no RNG,
no host clock, no hashing of unordered containers — so two identical
runs produce byte-identical sample streams.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Tuple, Union

LabelsArg = Union[Dict[str, str], Iterable[Tuple[str, str]]]
Labels = Tuple[Tuple[str, str], ...]


def canonical_labels(labels: LabelsArg = ()) -> Labels:
    """Labels as a sorted tuple of (key, value) string pairs."""
    if isinstance(labels, dict):
        items = labels.items()
    else:
        items = tuple(labels)
    return tuple(sorted((str(k), str(v)) for k, v in items))


def default_buckets(base: float = 0.5, growth: float = 2.0,
                    count: int = 16) -> Tuple[float, ...]:
    """Geometric (log-spaced) upper bounds: base, base*growth, ...

    The default covers 0.5 .. 16384 simulated time units — wide enough
    for lock hold times (~1) through end-to-end response times
    (~1000s) at the paper's scale.  An implicit +Inf bucket always
    terminates the series.
    """
    return tuple(base * growth ** i for i in range(count))


class Instrument:
    """Common core: identity, registry link, and the sample list."""

    kind = "untyped"
    __slots__ = ("name", "help", "labels", "_registry", "samples")

    def __init__(self, registry, name: str, help: str = "",
                 labels: LabelsArg = ()):
        self.name = name
        self.help = help
        self.labels = canonical_labels(labels)
        self._registry = registry
        #: Closed-window sample points, appended by the registry.
        self.samples: List[tuple] = []

    def key(self) -> Tuple[str, Labels]:
        return (self.name, self.labels)

    # The registry calls this when a window the instrument was dirty
    # in closes; ``t`` is the simulated-time window boundary.
    def _sample(self, t: float) -> None:
        raise NotImplementedError

    def _touch(self, t: float) -> None:
        registry = self._registry
        registry._tick(t)
        registry._dirty[self] = None


# The mutators below inline ``_touch``'s fast path (bump the last-seen
# time, close windows only at a boundary crossing, mark dirty): probe
# hooks fire once or more per simulated event, and the saved function
# calls are what keep the metered benchmarks inside the <=10% overhead
# gate (``repro bench --max-metrics-overhead``).

class Counter(Instrument):
    """Monotone event count (grants, retries, drops, ...)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, registry, name: str, help: str = "",
                 labels: LabelsArg = ()):
        super().__init__(registry, name, help, labels)
        self.value = 0.0

    def inc(self, t: float, amount: float = 1.0) -> None:
        registry = self._registry
        if t >= registry._window_end:
            registry._tick(t)
        elif t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.value += amount

    def _sample(self, t: float) -> None:
        self.samples.append((t, self.value))


class Gauge(Instrument):
    """Instantaneous level (queue depth, in-flight messages, ...)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, registry, name: str, help: str = "",
                 labels: LabelsArg = ()):
        super().__init__(registry, name, help, labels)
        self.value = 0.0

    def set(self, t: float, value: float) -> None:
        registry = self._registry
        if t >= registry._window_end:
            registry._tick(t)
        elif t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.value = float(value)

    def inc(self, t: float, amount: float = 1.0) -> None:
        registry = self._registry
        if t >= registry._window_end:
            registry._tick(t)
        elif t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.value += amount

    def dec(self, t: float, amount: float = 1.0) -> None:
        registry = self._registry
        if t >= registry._window_end:
            registry._tick(t)
        elif t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.value -= amount

    def _sample(self, t: float) -> None:
        self.samples.append((t, self.value))


class Histogram(Instrument):
    """Log-bucketed distribution (hold times, blocking times, ...).

    ``bounds`` are ascending upper bucket edges; observations above
    the last edge land in the implicit +Inf bucket.  Per-bucket counts
    are stored *non*-cumulative.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, registry, name: str, help: str = "",
                 labels: LabelsArg = (),
                 bounds: Iterable[float] = None):
        super().__init__(registry, name, help, labels)
        edges = tuple(bounds) if bounds is not None else default_buckets()
        if list(edges) != sorted(edges):
            raise ValueError(f"histogram bounds must ascend: {edges!r}")
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, t: float, value: float) -> None:
        registry = self._registry
        if t >= registry._window_end:
            registry._tick(t)
        elif t > registry._last_tick:
            registry._last_tick = t
        registry._dirty[self] = None
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def _sample(self, t: float) -> None:
        self.samples.append((t, tuple(self.counts), self.sum, self.count))
