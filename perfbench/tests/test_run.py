"""The commands end to end, on the cheapest workload with the
repetition counts turned down (the arithmetic is the same)."""

import json
import os
import subprocess
import sys

import pytest

from perfbench import ROOT, cli, harness, run
from perfbench.env import FORBIDDEN_ENV, child_env, forbidden_env
from perfbench.metrics import END_TO_END, PER_LAYER

NAME = "exec_cache"


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_CHILDREN", 2)
    monkeypatch.setattr(harness, "MIN_ROUNDS", 2)
    monkeypatch.setattr(run, "ENGINE_PAIRS", 1)
    monkeypatch.setattr(run, "POOL_REPEATS", 1)


def _last_line(capsys):
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric(quick, capsys,
                                                     tmp_path):
    code = cli.main(["run", "--workload", NAME, "--seed", "7",
                     "--seconds", "0", "--out", str(tmp_path)])
    out, result = _last_line(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 11
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    for metric in END_TO_END:
        reading = result["metrics"][metric.name]
        assert set(reading) == {"value", "unit"}
        assert reading["unit"] == metric.unit and reading["value"] > 0
    assert "seed=7" in out and "fail_share" in out
    saved = json.loads((tmp_path / "result.json").read_text())
    assert saved["seed"] == 7
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in saved["metrics"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    leftovers = [entry for root in (harness.SHM, harness.SCRATCH)
                 if os.path.isdir(root) for entry in os.listdir(root)
                 if "cache-" in entry]
    assert not leftovers


def test_traced_run_attributes_every_call_and_nests_spans(quick, capsys,
                                                          tmp_path):
    code = cli.main(["trace", "--workload", NAME,
                     "--out", str(tmp_path)])
    _, result = _last_line(capsys)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]
    value = {name: reading["value"]
             for name, reading in result["metrics"].items()}
    shares = [v for name, v in value.items()
              if name.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    saved = json.loads((tmp_path / "result.json").read_text())
    calls = sum(v for name, v in value.items()
                if name.endswith(".calls") and name.count(".") == 1
                and name.split(".")[0] in run.LAYERS)
    assert calls / saved["extra"]["ops"] == pytest.approx(
        saved["extra"]["calls_per_op"], rel=1e-12)
    # the workload's own mechanism shows up in its layer metrics
    assert value["exec.cache_hits"] == 4 * value["exec.cache_writes"] > 0
    assert value["exec.cold_unit_us"] > value["exec.warm_unit_us"] > 0
    assert value["exec.fingerprint_calls"] >= value["exec.units"] > 0
    assert value["harness.profile_overhead_x"] > 1.0

    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    by_id = {span["id"]: span for span in spans}
    rounds = [span for span in spans if span["parent"] is None]
    units = [span for span in spans if span["parent"] is not None]
    assert len(rounds) == 1 and len(units) == 11
    for span in units:
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] \
            <= parent["end"]
        assert span["name"] == "replicate_many" and span["unit"]


def test_incorrect_output_exits_non_zero(monkeypatch, capsys):
    def wrong(name, seed, seconds):
        return {"workload": name, "seed": seed, "trace": 0, "units": [],
                "attempted": 10, "failed": 1, "extra": {},
                "values": {m.name: 1.0 for m in END_TO_END}}
    monkeypatch.setattr(cli, "run_untraced", wrong)
    assert cli.main(["run", "--workload", NAME]) == 1
    _, result = _last_line(capsys)
    assert result["correct"] is False and result["failed"] == 1


def _profile_pass(hash_seed):
    script = ("from perfbench.harness import Checker\n"
              "from perfbench.run import total_calls, warm_up\n"
              "from perfbench.workloads import WORKLOADS\n"
              f"w = WORKLOADS[{NAME!r}]; units = w.build(1)\n"
              f"counted, stats = warm_up(w, units, Checker({NAME!r}))\n"
              "print(total_calls(stats), counted.ops)\n")
    env = child_env()
    env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=60)
    return done.stdout.split()


def test_calls_per_op_repeats_exactly_across_processes():
    first, second = _profile_pass("0"), _profile_pass("12345")
    assert first == second and int(first[0]) > int(first[1]) > 0


def test_forbidden_environment_is_refused_before_anything_runs():
    assert forbidden_env({"REPRO_EXEC_RETRIES": "1", "HOME": "/"}) == [
        "REPRO_EXEC_RETRIES"]
    for name in FORBIDDEN_ENV:
        assert forbidden_env({name: "1"}) == [name]
    env = dict(os.environ, REPRO_JOBS="2", PYTHONPATH=ROOT)
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--workload", NAME],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert "REPRO_JOBS" in done.stderr


def test_children_get_a_scrubbed_environment():
    env = child_env({"REPRO_CACHE_SALT": "x", "REPRO_JOBS": "4",
                     "PYTHONPATH": "/elsewhere", "HOME": "/root"})
    assert env == {"HOME": "/root", "PYTHONHASHSEED": "0",
                   "PYTHONPATH": ROOT}


def _runs(factor):
    return [{"workload": NAME, "seed": seed, "metrics": {
        m.name: {"value": (100.0 + seed % 3) * factor, "unit": m.unit}
        for m in END_TO_END}} for seed in range(1, 11)]


def test_compare_prints_a_row_per_workload_and_metric(tmp_path, capsys):
    parent, change = tmp_path / "A.json", tmp_path / "B.json"
    parent.write_text(json.dumps(_runs(1.0)))
    change.write_text(json.dumps(_runs(0.8)))
    assert cli.main(["compare", str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()
            if line.startswith(f"| {NAME}")]
    assert len(rows) == len(END_TO_END)
    assert all("gain" in row and "10/10" in row for row in rows)
    assert "unchanged" not in out
    change.write_text(json.dumps(_runs(1.5)))
    assert cli.main(["compare", str(parent), str(change)]) == 1
    assert "regression" in capsys.readouterr().out


def test_aa_fails_when_a_gap_exceeds_its_bound(monkeypatch, capsys):
    readings = iter([1.0, 1.0, 1.0, 1.3] * 2)

    def fake(root, workload, seed, seconds):
        scale = next(readings)
        return {"workload": workload, "seed": seed, "root": root,
                "correct": True, "failed": 0, "attempted": 5,
                "metrics": {m.name: {"value": 10.0 * scale,
                                     "unit": m.unit}
                            for m in END_TO_END}}
    monkeypatch.setattr(cli, "_one_run", fake)
    # run 1: A=1.0 B=1.0; run 2 (order flipped): B=1.0 A=1.3 ...
    code = cli.main(["aa", "--runs", "4", "--workloads", NAME])
    out = capsys.readouterr().out
    assert code == 1 and "NO" in out and "rel_cost" in out
