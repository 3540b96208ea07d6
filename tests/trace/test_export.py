"""Artifacts: JSONL round trip, Chrome trace_event schema, validation."""

import json
import math

from repro.trace import (TraceEvent, Tracer, chrome_document,
                         export_chrome, load_jsonl, trace_artifact,
                         validate_chrome_document, validate_event_kinds,
                         write_jsonl)


def _filled(records, capacity=1 << 20):
    """A tracer whose hooks appended ``records``."""
    tracer = Tracer(capacity)
    tracer.records.extend(records)
    tracer.emitted = len(records)
    return tracer


def _small_tracer():
    return _filled([
        (0.0, "txn_start", 1, 4, {"priority": -2.0, "deadline": 50.0}),
        (1.0, "lock_block", 1, 4, {"oid": 7, "cause": "direct",
                                   "waiter_priority": -2.0,
                                   "holders": [[9, -8.0]]}),
        (3.0, "lock_grant", 1, 4, {"oid": 7, "waited": True}),
        (4.0, "msg_send", 1, 4, {"dst": 2, "msg": "DataRequest",
                                 "copies": 1}),
        (6.0, "txn_commit", 1, 4, None)])


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    tracer = _small_tracer()
    path = str(tmp_path / "run.trace.jsonl")
    meta = write_jsonl(path, *trace_artifact(tracer))
    assert meta["events"] == 5
    assert meta["dropped"] == 0
    loaded_meta, records = load_jsonl(path)
    assert loaded_meta == meta
    assert [TraceEvent.from_dict(r) for r in records] \
        == list(tracer.events)


def test_jsonl_meta_reports_ring_overflow(tmp_path):
    tracer = _filled([(float(k), "txn_start", None, k, None)
                      for k in range(5)], capacity=2)
    path = str(tmp_path / "overflow.trace.jsonl")
    meta = write_jsonl(path, *trace_artifact(tracer))
    assert meta == {"trace_version": 1, "events": 2, "emitted": 5,
                    "dropped": 3}
    loaded_meta, records = load_jsonl(path)
    assert loaded_meta["dropped"] == 3
    assert len(records) == 2


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
    tracer = _filled([
        (0.0, "txn_start", 0, 1, {"priority": -float("inf"),
                                  "deadline": float("inf")}),
        (2.0, "txn_commit", 0, 1, None)])
    path = str(tmp_path / "inf.trace.json")
    assert export_chrome(list(tracer.events), path) == []
    # The file is strict JSON (no Infinity literals)...
    with open(path, "r", encoding="utf-8") as stream:
        raw = stream.read()
    assert "Infinity" not in raw.replace("'inf'", "").replace(
        '"inf"', "")
    parsed = json.loads(raw)
    assert validate_chrome_document(parsed) == []
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


def test_export_chrome_writes_nothing_it_would_reject(tmp_path):
    path = tmp_path / "bad.trace.json"
    events = [TraceEvent(0.0, "made_up_kind", 0, 1, None),
              TraceEvent(float("nan"), "msg_send", 0, 1, None)]
    problems = export_chrome(events, str(path))
    assert problems[0] == "unregistered event kind 'made_up_kind'"
    assert any("bad ts" in problem for problem in problems[1:])
    assert not path.exists()
