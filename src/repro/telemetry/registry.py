"""The MetricsRegistry: named instruments + lazy window sampling.

Design contract (tested in ``tests/telemetry``):

- **zero perturbation** — the registry never schedules kernel events,
  never draws randomness, and never mutates model state.  Sampling
  windows are closed *lazily*, driven by the instrument mutations
  themselves: every mutation calls :meth:`MetricsRegistry._tick` with
  the simulated time of the measured event, which closes any fully
  elapsed windows first.  A metrics-enabled run is therefore bitwise
  identical to a plain run (the golden-summary tests prove it both
  for a single-site and a distributed scenario).
- **fixed simulated-time windows** — instruments that changed during
  a window are sampled once at that window's end; untouched windows
  produce no points (consumers forward-fill).  The dirty set is an
  insertion-ordered dict so the sample order is deterministic, and
  :meth:`dump` additionally sorts series by (name, labels).
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
from .instruments import (Counter, Gauge, Histogram, Instrument,
                          LabelsArg, canonical_labels)
from .probes import probes

#: Default sampling-window width in *simulated* time units.
DEFAULT_WINDOW = 50.0


class MetricsRegistry:
    """Holds the instruments of one run and samples them on windows."""

    def __init__(self, window: float = DEFAULT_WINDOW,
                 start: float = 0.0,
                 meta: Optional[dict] = None):
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = float(window)
        self.meta: dict = dict(meta or {})
        self._instruments: Dict[Tuple[str, tuple], Instrument] = {}
        #: Instruments mutated in the currently open window, in first-
        #: mutation order (dict as ordered set — determinism matters).
        self._dirty: Dict[Instrument, None] = {}
        self._start = float(start)
        self._window_end = self._start + self.window
        self._last_tick = self._start
        self._finalized = False

    # ------------------------------------------------------------------
    # instrument factory
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str, labels: LabelsArg,
             **kwargs) -> Instrument:
        key = (name, canonical_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(self, name, help, labels, **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"instrument {name!r}{dict(key[1])!r} already registered "
                f"as {instrument.kind}, requested {cls.kind}")
        return instrument

    def counter(self, name: str, help: str = "",
                labels: LabelsArg = ()) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: LabelsArg = ()) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: LabelsArg = (),
                  bounds=None) -> Histogram:
        return self._get(Histogram, name, help, labels, bounds=bounds)

    # ------------------------------------------------------------------
    # windowing
    # ------------------------------------------------------------------
    def _tick(self, t: float) -> None:
        """Close elapsed windows before a mutation at simulated ``t``.

        All dirty instruments were last mutated strictly inside the
        window ending at ``self._window_end`` (any mutation at or past
        the boundary lands here first), so they are sampled at that
        boundary, and the open window jumps forward to cover ``t``.
        """
        if t > self._last_tick:
            self._last_tick = t
        if t < self._window_end:
            return
        boundary = self._window_end
        dirty = self._dirty
        if dirty:
            for instrument in dirty:
                instrument._sample(boundary)
            dirty.clear()
        window = self.window
        self._window_end = self._start + window * (
            (t - self._start) // window + 1.0)

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
                entry["bounds"] = list(instrument.bounds)
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
        meta["window"] = self.window
        return {"meta": meta, "series": series}

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry(instruments={len(self._instruments)}, "
                f"window={self.window}, last_tick={self._last_tick})")


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
