"""Experiment runner on the engine: serial/parallel equivalence.

The acceptance bar for the execution engine: same config + seed give an
identical summary dict across repeated runs and across ``jobs=1`` vs
``jobs=4``; sweeps and protocol comparisons merge parallel results into
exactly the serial series.
"""

import dataclasses

import pytest

from repro.bench import Sweep, run
from repro.core import (WorkloadConfig, compare_protocols, replicate,
                        replicate_many)
from repro.exec import ExecutionError, ResultCache

from .conftest import tiny_config


def test_replicate_identical_across_repeated_runs():
    first = replicate(tiny_config(), replications=3, jobs=1)
    second = replicate(tiny_config(), replications=3, jobs=1)
    assert first == second


def test_replicate_identical_jobs1_vs_jobs4():
    serial = replicate(tiny_config(), replications=4, jobs=1)
    parallel = replicate(tiny_config(), replications=4, jobs=4)
    assert serial == parallel


def test_replicate_honors_repro_jobs_env(monkeypatch):
    serial = replicate(tiny_config(), replications=2, jobs=1)
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert replicate(tiny_config(), replications=2) == serial


def test_replicate_aggregate_has_ci_and_n():
    aggregated = replicate(tiny_config(), replications=3)
    assert aggregated["n"] == 3
    assert aggregated["runs"] == 3.0
    assert "throughput_std" in aggregated
    assert "throughput_ci95" in aggregated
    assert aggregated["throughput_ci95"] >= 0.0


def test_replicate_many_matches_individual_replicates():
    configs = [tiny_config(), tiny_config(protocol="L")]
    batched = replicate_many(configs, replications=2, jobs=2)
    individual = [replicate(config, replications=2, jobs=1)
                  for config in configs]
    assert batched == individual


def sized_config(size, protocol):
    return dataclasses.replace(
        tiny_config(protocol),
        workload=WorkloadConfig(n_transactions=10,
                                mean_interarrival=10.0,
                                transaction_size=size))


def size_sweep(values=(2, 4), config=sized_config):
    return Sweep(axis="size", values=values, variants=("C", "L"),
                 config=config, metrics=(("throughput", "thr_{}"),),
                 tables=())


def test_sweep_identical_jobs1_vs_jobs4():
    serial = run(size_sweep(), replications=2, jobs=1)
    parallel = run(size_sweep(), replications=2, jobs=4)
    assert serial == parallel
    assert [row["size"] for row in serial] == [2, 4]
    assert all(set(row) == {"size", "thr_C", "thr_L"} for row in serial)


def test_sweep_preserves_non_numeric_values():
    values = ("C", (1, 2), True, None, "2.5")
    series = run(size_sweep(values, lambda value, protocol:
                            tiny_config(protocol)),
                 replications=1)
    assert tuple(row["size"] for row in series) == values


def test_compare_protocols_identical_jobs1_vs_jobs4():
    serial = compare_protocols(tiny_config(), ["C", "L"],
                               replications=2, jobs=1)
    parallel = compare_protocols(tiny_config(), ["C", "L"],
                                 replications=2, jobs=4)
    assert serial == parallel
    assert set(serial) == {"C", "L"}


def test_replicate_uses_cache_across_calls(tmp_path):
    cache = ResultCache(tmp_path)
    cold = replicate(tiny_config(), replications=3, jobs=1,
                     cache=cache)
    warm = replicate(tiny_config(), replications=3, jobs=2,
                     cache=cache)
    assert warm == cold
    assert cache.hits == 3


def test_replicate_surfaces_structured_failures(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_INJECT", "1001:inf")
    monkeypatch.setenv("REPRO_EXEC_RETRIES", "0")
    with pytest.raises(ExecutionError) as excinfo:
        replicate(tiny_config(), replications=3, jobs=1)
    assert len(excinfo.value.failures) == 1
    assert excinfo.value.failures[0].seed == 1001


def test_replicate_rejects_unknown_config_type():
    with pytest.raises(TypeError):
        replicate({"not": "a config"}, replications=1)
