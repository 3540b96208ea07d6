"""repro.trace — structured event tracing and blocking-time accounting.

The observability layer of the reproduction: a zero-perturbation
:class:`Tracer` (typed events into a bounded ring buffer), a span and
timeline reconstructor with the blocking-time decomposition the
real-time locking literature uses (direct, ceiling, inversion, network
wait), the one JSONL artifact format of observed runs (traces and
metrics alike), its Perfetto-loadable Chrome ``trace_event`` export,
and ``repro report``, the reader of both kinds.  See the README
"Observability" section.
"""

from ..kernel.hooks import ENV_TRACE_DIR
from .events import EVENT_KINDS, TraceEvent
from .export import (chrome_document, export_chrome, load_jsonl,
                     metrics_artifact, trace_artifact,
                     validate_chrome_document, validate_event_kinds,
                     write_jsonl)
from .timeline import (BlockSpan, RunTimeline, TransactionTimeline,
                       merge_intervals, reconstruct, subtract_intervals,
                       total_length)
from .tracer import DEFAULT_CAPACITY, Tracer, tracing

__all__ = [
    "EVENT_KINDS", "TraceEvent", "Tracer", "DEFAULT_CAPACITY",
    "ENV_TRACE_DIR", "tracing",
    "BlockSpan", "RunTimeline", "TransactionTimeline", "reconstruct",
    "merge_intervals", "subtract_intervals", "total_length",
    "chrome_document", "export_chrome", "load_jsonl", "write_jsonl",
    "trace_artifact", "metrics_artifact",
    "validate_chrome_document", "validate_event_kinds",
]
