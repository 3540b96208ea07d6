"""Exporters: JSONL round trip, Chrome trace_event schema, validation."""

import json
import math

from repro.trace import (TraceEvent, Tracer, chrome_document,
                         export_chrome, export_jsonl, load_jsonl,
                         validate_chrome_document, validate_event_kinds)


def _small_tracer():
    tracer = Tracer()
    tracer.emit(0.0, "txn_start", site=1, tid=4,
                priority=-2.0, deadline=50.0)
    tracer.emit(1.0, "lock_block", site=1, tid=4, oid=7,
                cause="direct", waiter_priority=-2.0,
                holders=[[9, -8.0]])
    tracer.emit(3.0, "lock_grant", site=1, tid=4, oid=7, waited=True)
    tracer.emit(4.0, "msg_send", site=1, tid=4, dst=2,
                msg="DataRequest", copies=1)
    tracer.emit(6.0, "txn_commit", site=1, tid=4)
    return tracer


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    tracer = _small_tracer()
    path = str(tmp_path / "run.trace.jsonl")
    meta = export_jsonl(tracer, path)
    assert meta["events"] == 5
    assert meta["dropped"] == 0
    loaded_meta, events = load_jsonl(path)
    assert loaded_meta == meta
    assert events == list(tracer.events)


def test_jsonl_meta_reports_ring_overflow(tmp_path):
    tracer = Tracer(capacity=2)
    for k in range(5):
        tracer.emit(float(k), "txn_start", tid=k)
    path = str(tmp_path / "overflow.trace.jsonl")
    meta = export_jsonl(tracer, path)
    assert meta == {"trace_version": 1, "events": 2, "emitted": 5,
                    "dropped": 3}
    loaded_meta, events = load_jsonl(path)
    assert loaded_meta["dropped"] == 3
    assert len(events) == 2


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def test_chrome_document_structure():
    tracer = _small_tracer()
    document = chrome_document(list(tracer.events))
    assert validate_chrome_document(document) == []
    events = document["traceEvents"]
    phases = {event["ph"] for event in events}
    assert phases == {"M", "X", "i"}
    # One txn lifetime X span, one lock-block X span, one msg instant.
    txn = [e for e in events if e["ph"] == "X" and e["cat"] == "txn"]
    assert len(txn) == 1
    assert txn[0]["ts"] == 0.0 and txn[0]["dur"] == 6.0
    assert txn[0]["pid"] == 1 and txn[0]["tid"] == 4
    blocks = [e for e in events if e["ph"] == "X" and e["cat"] == "lock"]
    assert len(blocks) == 1
    assert blocks[0]["dur"] == 2.0
    instants = [e for e in events if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["msg_send"]
    # Process/thread naming metadata is present.
    names = {(e["name"], e["args"]["name"]) for e in events
             if e["ph"] == "M"}
    assert ("process_name", "site-1") in names
    assert ("thread_name", "txn-4") in names


def test_chrome_export_sanitizes_non_finite_values(tmp_path):
    tracer = Tracer()
    tracer.emit(0.0, "txn_start", site=0, tid=1,
                priority=-float("inf"), deadline=float("inf"))
    tracer.emit(2.0, "txn_commit", site=0, tid=1)
    path = str(tmp_path / "inf.trace.json")
    document = export_chrome(list(tracer.events), path)
    assert validate_chrome_document(document) == []
    # The file is strict JSON (no Infinity literals)...
    with open(path, "r", encoding="utf-8") as stream:
        raw = stream.read()
    assert "Infinity" not in raw.replace("'inf'", "").replace(
        '"inf"', "")
    parsed = json.loads(raw)
    # ...and every numeric field is finite.
    for event in parsed["traceEvents"]:
        for field in ("ts", "dur"):
            if field in event:
                assert math.isfinite(event[field])


def test_validate_chrome_document_flags_problems():
    assert validate_chrome_document([]) == [
        "document is not a JSON object"]
    assert validate_chrome_document({}) == [
        "missing or non-list 'traceEvents'"]
    bad = {"traceEvents": [
        {"ph": "Z", "name": "x", "pid": 0, "tid": 0, "ts": 0},
        {"ph": "X", "name": "x", "pid": 0, "tid": 0,
         "ts": float("nan"), "dur": -1.0},
        {"ph": "i", "name": "x", "pid": "zero", "tid": 0,
         "ts": 0.0, "s": "q"},
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {}},
    ]}
    problems = validate_chrome_document(bad)
    assert any("unknown phase" in p for p in problems)
    assert any("bad ts" in p for p in problems)
    assert any("bad dur" in p for p in problems)
    assert any("non-integer pid" in p for p in problems)
    assert any("bad instant scope" in p for p in problems)
    assert any("metadata without args.name" in p for p in problems)


def test_validate_event_kinds():
    good = [TraceEvent(0.0, "txn_start", 0, 1, None)]
    assert validate_event_kinds(good) == []
    bad = good + [TraceEvent(1.0, "made_up_kind", 0, 1, None)]
    assert validate_event_kinds(bad) == [
        "unregistered event kind 'made_up_kind'"]
