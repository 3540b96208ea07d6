"""repro.telemetry — deterministic time-series metrics.

A zero-RNG instrumentation layer sampled on fixed *simulated*-time
windows.  The layer honors the same contract as :mod:`repro.trace`:
installing a registry never perturbs the simulation (no events, no
RNG draws, no model-state mutation), so metrics-enabled runs stay
bitwise-identical to plain runs.

Public surface:

- :class:`MetricsRegistry` and its activation, :func:`metering`, in
  :mod:`repro.telemetry.registry`;
- the typed instruments (Counter, Gauge, log-bucketed Histogram) in
  :mod:`repro.telemetry.instruments`;
- the probes — the subscribers to the kernel's instrumentation
  hooks — in :mod:`repro.telemetry.probes`;
- the per-unit JSONL artifact, its summary and its diff in
  :mod:`repro.telemetry.export`;
- the sanctioned host-clock helper in
  :mod:`repro.telemetry.hostclock` (the only place simulation-adjacent
  code may read the host clock — see lint rule RPL001).
"""

from .instruments import Counter, Gauge, Histogram
from .registry import (DEFAULT_WINDOW, ENV_METRICS_DIR, MetricsRegistry,
                       metering)

__all__ = [
    "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "metering",
    "DEFAULT_WINDOW", "ENV_METRICS_DIR",
]
