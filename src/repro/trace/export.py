"""Observed-run artifacts: one JSONL format, and the Chrome export.

- **JSONL** — the artifact a traced or metered unit writes, and a
  ``repro verify`` counterexample's trace: one ``{"meta": ...}``
  header line, then one JSON record per line.  :func:`write_jsonl`
  is the one writer and :func:`load_jsonl` the one loader; the
  header's ``trace_version`` (records are trace events) or
  ``metrics_version`` (records are series of a registry dump) says
  which kind it is.  ``repro report`` reads both.
- **Chrome trace_event** — the JSON array format Perfetto and
  ``about:tracing`` load directly: one *process* lane per site, one
  *thread* lane per transaction, complete (``"X"``) events for
  transaction lifetimes, lock-blocking spans and RPC spans, instant
  (``"i"``) events for messages, ceilings, 2PC phases and crashes.
  Timestamps map one virtual time unit to one microsecond.
  :func:`export_chrome` writes a document only once
  :func:`validate_chrome_document` accepts it.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

from .events import EVENT_KINDS, TraceEvent
from .timeline import reconstruct

TRACE_VERSION = 1
METRICS_VERSION = 1

#: Event kinds surfaced as Chrome instant events (the rest are either
#: span-reconstructed or too chatty for a visual timeline).
_INSTANT_KINDS = ("msg_send", "msg_deliver", "msg_drop", "msg_retry",
                  "msg_undeliverable", "ceiling_raise", "ceiling_lower",
                  "priority_inherit", "priority_restore", "2pc_prepare",
                  "2pc_decide", "2pc_done", "site_crash",
                  "site_recover", "txn_restart")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(destination: str, meta: dict,
                records: Iterable[dict]) -> dict:
    """Write one artifact: the ``meta`` header, then one line per
    record; returns ``meta``."""
    with open(destination, "w", encoding="utf-8") as sink:
        sink.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for record in records:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    return meta


def load_jsonl(source: str) -> Tuple[dict, List[dict]]:
    """Read an artifact back into ``(meta, records)``."""
    with open(source, "r", encoding="utf-8") as stream:
        lines = [json.loads(line) for line in stream if line.strip()]
    if not lines or list(lines[0]) != ["meta"]:
        raise ValueError(f"{source}: no meta header on the first line")
    return lines[0]["meta"], lines[1:]


def trace_artifact(tracer) -> Tuple[dict, List[dict]]:
    """A tracer's ring buffer as ``(meta, records)``."""
    records = tracer.records
    meta = {"trace_version": TRACE_VERSION,
            "events": len(records), "emitted": tracer.emitted,
            "dropped": tracer.dropped}
    return meta, [TraceEvent(*record).as_dict() for record in records]


def metrics_artifact(document: dict) -> Tuple[dict, List[dict]]:
    """A registry :meth:`~repro.telemetry.registry.MetricsRegistry.dump`
    as ``(meta, records)``: one record per series."""
    series = document["series"]
    meta = dict(document["meta"], metrics_version=METRICS_VERSION,
                series=len(series))
    return meta, series


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def _finite(value):
    """Perfetto's JSON parser rejects Infinity/NaN literals."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _safe_args(data: Optional[Dict]) -> Dict:
    return {key: _finite(value) for key, value in (data or {}).items()}


def _pid(site: Optional[int]) -> int:
    return site if isinstance(site, int) else 0


def chrome_document(events: Iterable[TraceEvent],
                    dropped: int = 0) -> Dict:
    """Build a Chrome ``trace_event`` document from an event stream."""
    events = list(events)
    run = reconstruct(events, dropped=dropped)
    out: List[Dict] = []
    lanes: Dict[Tuple[int, int], None] = {}
    pids: Dict[int, None] = {}

    def lane(site: Optional[int], tid: Optional[int]) -> Tuple[int, int]:
        key = (_pid(site), tid if isinstance(tid, int) else 0)
        pids.setdefault(key[0], None)
        lanes.setdefault(key, None)
        return key

    for timeline in run.transactions.values():
        if timeline.start is None or timeline.finish is None:
            continue
        pid, tid = lane(timeline.site, timeline.tid)
        out.append({"ph": "X", "name": f"txn-{timeline.tid}",
                    "cat": "txn", "pid": pid, "tid": tid,
                    "ts": timeline.start,
                    "dur": timeline.finish - timeline.start,
                    "args": _safe_args({
                        "priority": timeline.priority,
                        "deadline": timeline.deadline,
                        "outcome": timeline.outcome,
                        "restarts": timeline.restarts,
                        "applier": timeline.applier})})
        for span in timeline.block_spans:
            out.append({"ph": "X",
                        "name": f"{span.cause}-block oid={span.oid}",
                        "cat": "lock", "pid": pid, "tid": tid,
                        "ts": span.start, "dur": span.duration,
                        "args": {"oid": span.oid,
                                 "inverted": span.inverted,
                                 "closed_by": span.closed_by}})
        for begin, end, label in timeline.rpc_spans:
            out.append({"ph": "X", "name": label or "rpc",
                        "cat": "rpc", "pid": pid, "tid": tid,
                        "ts": begin, "dur": end - begin, "args": {}})
    for event in events:
        if event.kind not in _INSTANT_KINDS:
            continue
        pid, tid = lane(event.site, event.tid)
        out.append({"ph": "i", "name": event.kind, "cat": "event",
                    "pid": pid, "tid": tid, "ts": event.t, "s": "t",
                    "args": _safe_args(event.data)})
    metadata: List[Dict] = []
    for pid in sorted(pids):
        metadata.append({"ph": "M", "name": "process_name",
                         "pid": pid, "tid": 0,
                         "args": {"name": f"site-{pid}"}})
    for pid, tid in sorted(lanes):
        metadata.append({"ph": "M", "name": "thread_name",
                         "pid": pid, "tid": tid,
                         "args": {"name": (f"txn-{tid}" if tid
                                           else "infrastructure")}})
    return {"traceEvents": metadata + out,
            "displayTimeUnit": "ms",
            "otherData": {"trace_version": TRACE_VERSION,
                          "dropped": dropped}}


def export_chrome(events: Iterable[TraceEvent], destination: str,
                  dropped: int = 0) -> List[str]:
    """Write a Perfetto-loadable Chrome trace JSON file, unless the
    events or the document fail validation: returns the problems, and
    ``[]`` means the file was written."""
    events = list(events)
    document = chrome_document(events, dropped=dropped)
    problems = (validate_event_kinds(events)
                + validate_chrome_document(document))
    if not problems:
        with open(destination, "w", encoding="utf-8") as sink:
            json.dump(document, sink, sort_keys=True)
    return problems


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def validate_chrome_document(document) -> List[str]:
    """Schema-check a Chrome trace document; [] means valid."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["missing or non-list 'traceEvents'"]
    for index, event in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "i", "M"):
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: non-integer {field}")
        if phase in ("X", "i"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or not math.isfinite(ts):
                problems.append(f"{where}: bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float))
                    or not math.isfinite(dur) or dur < 0):
                problems.append(f"{where}: bad dur {dur!r}")
        if phase == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"{where}: bad instant scope")
        if phase == "M":
            args = event.get("args")
            if not (isinstance(args, dict)
                    and isinstance(args.get("name"), str)):
                problems.append(f"{where}: metadata without args.name")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: non-object args")
    return problems


def validate_event_kinds(events: Iterable[TraceEvent]) -> List[str]:
    """Every emitted kind must be registered in the schema table."""
    unknown = sorted({event.kind for event in events
                      if event.kind not in EVENT_KINDS})
    return [f"unregistered event kind {kind!r}" for kind in unknown]
