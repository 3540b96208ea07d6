"""repro.trace — structured event tracing and blocking-time accounting.

The observability layer of the reproduction: a zero-perturbation
:class:`Tracer` (typed events into a bounded ring buffer), a span and
timeline reconstructor with the blocking-time decomposition the
real-time locking literature uses (direct, ceiling, inversion, network
wait), and exporters to JSONL and Perfetto-loadable Chrome
``trace_event`` JSON.  See the README "Observability" section.
"""

from .events import EVENT_KINDS, TraceEvent
from .export import (chrome_document, export_chrome, export_jsonl,
                     load_jsonl, validate_chrome_document,
                     validate_event_kinds)
from .timeline import (BlockSpan, RunTimeline, TransactionTimeline,
                       merge_intervals, reconstruct, subtract_intervals,
                       total_length)
from .tracer import DEFAULT_CAPACITY, ENV_TRACE_DIR, Tracer, tracing

__all__ = [
    "EVENT_KINDS", "TraceEvent", "Tracer", "DEFAULT_CAPACITY",
    "ENV_TRACE_DIR", "tracing",
    "BlockSpan", "RunTimeline", "TransactionTimeline", "reconstruct",
    "merge_intervals", "subtract_intervals", "total_length",
    "chrome_document", "export_chrome", "export_jsonl", "load_jsonl",
    "validate_chrome_document", "validate_event_kinds",
]
