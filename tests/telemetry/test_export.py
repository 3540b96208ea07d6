"""Metrics artifact contracts: JSONL round trip, report and diff."""

from repro.telemetry.registry import MetricsRegistry
from repro.trace.export import (METRICS_VERSION, load_jsonl,
                                metrics_artifact, write_jsonl)
from repro.trace.report import (diff_records, main, metrics_rows,
                                report_text)


def sample_document():
    registry = MetricsRegistry(meta={"seed": 7})
    grants = registry.counter("cc.grants", "lock grants",
                              labels={"waited": "no"})
    depth = registry.gauge("kernel.queue_depth", "ready queue depth")
    hold = registry.histogram("cc.hold_time", "lock hold time")
    # Mutations in simulated-time order, spanning two windows.
    grants.inc(1.0)
    depth.set(2.0, 3)
    hold.observe(3.0, 0.5)
    registry.close_windows(60.0)  # the sampler closes the 0..50 window
    grants.inc(60.0, 4.0)
    hold.observe(64.0, 2.0)
    hold.observe(64.5, 9.0)
    depth.set(65.0, 1)
    registry.finalize()
    return registry.dump()


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    document = sample_document()
    path = str(tmp_path / "run.metrics.jsonl")
    meta = write_jsonl(path, *metrics_artifact(document))
    assert meta["metrics_version"] == METRICS_VERSION
    assert meta["series"] == 3
    loaded_meta, series = load_jsonl(path)
    assert series == document["series"]
    assert loaded_meta == meta
    assert loaded_meta["seed"] == 7
    assert loaded_meta["window"] == 50.0


# ----------------------------------------------------------------------
# summarize / diff
# ----------------------------------------------------------------------
def test_summarize_rows_and_text():
    meta, series = metrics_artifact(sample_document())
    rows = metrics_rows(series)
    assert [row["name"] for row in rows] == [
        "cc.grants", "cc.hold_time", "kernel.queue_depth"]
    grants = rows[0]
    assert grants["kind"] == "counter"
    assert grants["final"] == 5.0
    text = report_text(meta, series)
    assert "3 series" in text
    assert "window=50.0" in text
    assert "cc.grants{waited=no}" in text


def test_diff_identical_documents_is_empty():
    assert diff_records(sample_document()["series"],
                        sample_document()["series"]) == []


def test_diff_ignores_meta(tmp_path):
    left, right = sample_document(), sample_document()
    right["meta"]["wall_s"] = 123.0
    paths = [str(tmp_path / name) for name in ("a.jsonl", "b.jsonl")]
    for path, document in zip(paths, (left, right)):
        write_jsonl(path, *metrics_artifact(document))
    assert main([paths[0], "--diff", paths[1]]) == 0


def test_diff_reports_final_and_membership_differences():
    left, right = sample_document()["series"], sample_document()["series"]
    right[0]["final"] = 99.0
    del right[1]
    assert diff_records(left, right) == [
        "record 1: cc.grants{waited=no} != cc.grants{waited=no}",
        "record 2: cc.hold_time{} != kernel.queue_depth{}",
        "3 records vs 2"]


def test_diff_reports_point_stream_differences():
    left, right = sample_document()["series"], sample_document()["series"]
    right[2]["points"].append([25.0, 9.0])
    assert diff_records(left, right) == [
        "record 3: kernel.queue_depth{} != kernel.queue_depth{}"]
