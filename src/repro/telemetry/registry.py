"""The MetricsRegistry: named instruments + fixed sampling windows.

Design contract (tested in ``tests/telemetry``):

- **zero perturbation** — the registry never schedules kernel events,
  never draws randomness, and never mutates model state.  Sampling
  windows have one clock, the kernel's queue sampler
  (:class:`~repro.telemetry.probes.KernelProbe`): the dispatch loop
  calls it at the first event of each new window, before that event's
  hooks fire, and it asks :meth:`MetricsRegistry.close_windows` to
  close the elapsed ones; :meth:`MetricsRegistry.finalize` closes the
  last, partial one.  A metrics-enabled run is therefore bitwise
  identical to a plain run (the golden-summary tests prove it both
  for a single-site and a distributed scenario).
- **fixed simulated-time windows** — every :data:`WINDOW` units from
  0; instruments that changed during a window are sampled once at
  that window's end; untouched windows produce no points (consumers
  forward-fill).  The dirty set is an insertion-ordered dict so the
  sample order is deterministic, and :meth:`dump` additionally sorts
  series by (name, labels).
- **bounded, cheap instruments** — get-or-create by (name, labels);
  re-requesting an existing instrument with a different kind is a
  programming error and raises.

:func:`metering` subscribes a registry's probes
(:mod:`repro.telemetry.probes`) to the kernels built inside its block;
the exec worker does the same with a fresh registry per run unit when
``REPRO_METRICS_DIR`` is set.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Optional, Tuple

from ..kernel.hooks import observing
from .instruments import (BUCKETS, WINDOW, Counter, Gauge, Histogram,
                          Instrument, canonical_labels)
from .probes import probes


class MetricsRegistry:
    """Holds the instruments of one run and samples them on windows."""

    def __init__(self, meta: Optional[dict] = None):
        self.meta: dict = dict(meta or {})
        self._instruments: Dict[Tuple[str, tuple], Instrument] = {}
        #: Instruments mutated in the currently open window, in first-
        #: mutation order (dict as ordered set — determinism matters).
        self._dirty: Dict[Instrument, None] = {}
        self._window_end = WINDOW
        #: The latest simulated time a mutation carried.
        self._last_tick = 0.0
        self._finalized = False

    # ------------------------------------------------------------------
    # instrument factory
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str,
             labels: Optional[Dict[str, str]]) -> Instrument:
        key = (name, canonical_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(self, name, help, key[1])
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"instrument {name!r}{dict(key[1])!r} already registered "
                f"as {instrument.kind}, requested {cls.kind}")
        return instrument

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None) -> Histogram:
        return self._get(Histogram, name, help, labels)

    # ------------------------------------------------------------------
    # windowing
    # ------------------------------------------------------------------
    def close_windows(self, t: float) -> float:
        """Close the windows that ended by simulated ``t``; returns the
        end of the window now open (when the sampler is next due).

        Called by the sampler before any hook of the event at ``t``
        fires, so every dirty instrument was last mutated strictly
        inside the window ending at ``self._window_end``: it is sampled
        at that boundary, and the open window jumps forward to cover
        ``t``.
        """
        boundary = self._window_end
        if t >= boundary:
            dirty = self._dirty
            for instrument in dirty:
                instrument._sample(boundary)
            dirty.clear()
            self._window_end = WINDOW * (t // WINDOW + 1.0)
        return self._window_end

    def finalize(self) -> None:
        """Close the final (partial) window at the last seen time."""
        if self._finalized:
            return
        self._finalized = True
        dirty = self._dirty
        if dirty:
            boundary = min(self._window_end, self._last_tick)
            for instrument in dirty:
                instrument._sample(boundary)
            dirty.clear()

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """The registry as a plain-data document (see export module).

        Series are sorted by (name, labels) so the artifact is stable
        regardless of instrument creation order.
        """
        series = []
        for key in sorted(self._instruments):
            instrument = self._instruments[key]
            entry = {
                "name": instrument.name,
                "kind": instrument.kind,
                "help": instrument.help,
                "labels": dict(instrument.labels),
            }
            if isinstance(instrument, Histogram):
                entry["bounds"] = list(BUCKETS)
                entry["points"] = [
                    {"t": t, "counts": list(counts),
                     "sum": total, "count": count}
                    for (t, counts, total, count) in instrument.samples]
                entry["final"] = {"counts": list(instrument.counts),
                                  "sum": instrument.sum,
                                  "count": instrument.count}
            else:
                entry["points"] = [[t, value]
                                   for (t, value) in instrument.samples]
                entry["final"] = instrument.value
            series.append(entry)
        meta = dict(self.meta)
        meta["window"] = WINDOW
        return {"meta": meta, "series": series}

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry(instruments={len(self._instruments)}, "
                f"last_tick={self._last_tick})")


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------
@contextlib.contextmanager
def metering(registry: Optional[MetricsRegistry] = None
             ) -> Iterator[MetricsRegistry]:
    """``with metering() as m: ...`` — kernels built inside the block
    are measured into ``m`` (shadowing an outer registry's probes,
    beside anything else observing)."""
    active = registry if registry is not None else MetricsRegistry()
    with observing(*probes(active)):
        yield active
