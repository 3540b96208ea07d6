"""BENCHMARK.json: generated from perfbench.metrics, inside the
driver's limits."""

import json
import os
import re

from perfbench import ROOT
from perfbench.metrics import END_TO_END, PER_LAYER, manifest

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

ISSUE_PER_LAYER = [
    f"{layer}.{kind}" for layer in (
        "kernel", "resources", "db", "cc", "txn", "dist", "core",
        "exec", "protocols", "py") for kind in ("calls", "self_share")
] + """
kernel.events_dispatched kernel.events_cancelled kernel.events_per_op
kernel.schedule_calls kernel.turbo_rel_cost cc.requests cc.blocks
cc.immediate_grant_ratio cc.calls_per_request cc.acquire_us
cc.release_all_calls cc.release_all_us db.can_grant_calls db.grant_calls
db.can_grant_per_grant db.release_all_calls txn.processed txn.committed
txn.restarts txn.calls_per_op resources.calls_per_op dist.messages_sent
dist.messages_per_op dist.calls_per_message core.build_us
core.aggregate_us exec.units exec.cache_hits exec.cache_writes
exec.fingerprint_calls exec.fingerprint_us exec.cold_unit_us
exec.warm_unit_us exec.pool_speedup_x exec.pool_unit_overhead_us
harness.rounds harness.slice_cpu_s harness.ref_slice_s
harness.rel_cost_iqr harness.run_wall_s harness.profile_overhead_x
""".split()


def _committed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def test_committed_file_is_the_generated_manifest():
    assert _committed() == manifest()


def test_manifest_is_inside_the_contract_limits():
    doc = manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert len(json.dumps(doc)) < 64 * 1024


def test_setup_s_is_present_with_the_largest_bound():
    by_name = {metric.name: metric for metric in END_TO_END}
    setup = by_name["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(metric.bound for metric in END_TO_END)
    assert setup.bound <= 0.10          # the issue's ceiling


def test_every_metric_the_issue_names_is_defined():
    assert [m.name for m in END_TO_END] == [
        "rel_cost", "calls_per_op", "peak_rss_mb", "setup_s"]
    defined = {metric.name for metric in PER_LAYER}
    assert not set(ISSUE_PER_LAYER) - defined
