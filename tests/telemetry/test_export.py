"""Artifact contracts: JSONL round trip, summarize and diff."""

from repro.telemetry.export import (METRICS_VERSION, diff_documents,
                                    load_metrics_jsonl, summarize_rows,
                                    summary_text, write_metrics_jsonl)
from repro.telemetry.registry import MetricsRegistry


def sample_document():
    registry = MetricsRegistry(window=10.0, meta={"seed": 7})
    grants = registry.counter("cc.grants", "lock grants",
                              labels={"waited": "no"})
    depth = registry.gauge("kernel.queue_depth", "ready queue depth")
    hold = registry.histogram("cc.hold_time", "lock hold time",
                              bounds=(1.0, 4.0))
    # Mutations in simulated-time order, spanning two windows.
    grants.inc(1.0)
    depth.set(2.0, 3)
    hold.observe(3.0, 0.5)
    grants.inc(12.0, 4.0)        # closes the 0..10 window
    hold.observe(14.0, 2.0)
    hold.observe(14.5, 9.0)
    depth.set(15.0, 1)
    registry.finalize()
    return registry.dump()


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    document = sample_document()
    path = str(tmp_path / "run.metrics.jsonl")
    meta = write_metrics_jsonl(document, path)
    assert meta["metrics_version"] == METRICS_VERSION
    assert meta["series"] == 3
    loaded = load_metrics_jsonl(path)
    assert loaded["series"] == document["series"]
    assert loaded["meta"]["seed"] == 7
    assert loaded["meta"]["window"] == 10.0


# ----------------------------------------------------------------------
# summarize / diff
# ----------------------------------------------------------------------
def test_summarize_rows_and_text():
    document = sample_document()
    rows = summarize_rows(document)
    assert [row["name"] for row in rows] == [
        "cc.grants", "cc.hold_time", "kernel.queue_depth"]
    grants = rows[0]
    assert grants["kind"] == "counter"
    assert grants["final"] == 5.0
    text = summary_text(document)
    assert "3 series" in text
    assert "window=10.0" in text
    assert "cc.grants{waited=no}" in text


def test_diff_identical_documents_is_empty():
    assert diff_documents(sample_document(), sample_document()) == []


def test_diff_ignores_meta():
    left, right = sample_document(), sample_document()
    right["meta"]["wall_s"] = 123.0
    assert diff_documents(left, right) == []


def test_diff_reports_final_and_membership_differences():
    left, right = sample_document(), sample_document()
    right["series"][0]["final"] = 99.0
    del right["series"][1]
    problems = diff_documents(left, right)
    assert any("final" in p for p in problems)
    assert any(p.startswith("only in left: cc.hold_time")
               for p in problems)


def test_diff_reports_point_stream_differences():
    left, right = sample_document(), sample_document()
    right["series"][2]["points"].append([25.0, 9.0])
    problems = diff_documents(left, right)
    assert any("sample streams differ" in p for p in problems)
