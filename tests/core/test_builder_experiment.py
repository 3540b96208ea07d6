"""SingleSiteSystem builder, experiment runner, config validation."""

import dataclasses

import pytest

from repro.bench import Sweep, run
from repro.core import (SingleSiteConfig, SingleSiteSystem, TimingConfig,
                        WorkloadConfig, compare_protocols, replicate,
                        run_single_site)
from repro.db.locks import LockMode
from repro.txn import CostModel
from repro.txn.generator import TransactionSpec


def tiny_config(protocol="C", **workload_overrides):
    workload = dict(n_transactions=20, mean_interarrival=10.0,
                    transaction_size=3)
    workload.update(workload_overrides)
    return SingleSiteConfig(protocol=protocol, db_size=50,
                            workload=WorkloadConfig(**workload),
                            timing=TimingConfig(slack_factor=10.0),
                            seed=7)


def test_config_validation():
    with pytest.raises(ValueError):
        SingleSiteConfig(protocol="Z").validate()
    with pytest.raises(ValueError):
        SingleSiteConfig(db_size=0).validate()
    with pytest.raises(ValueError):
        SingleSiteConfig(
            db_size=5,
            workload=WorkloadConfig(transaction_size=10)).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(mean_interarrival=0.0).validate()
    with pytest.raises(ValueError):
        TimingConfig(priority_policy="magic").validate()


def test_system_processes_every_transaction():
    system = SingleSiteSystem(tiny_config())
    monitor = system.run()
    assert monitor.processed == 20
    assert monitor.committed + monitor.missed == 20


def test_cpu_policy_follows_protocol():
    assert SingleSiteSystem(tiny_config("L")).cpu.policy == "fifo"
    assert SingleSiteSystem(tiny_config("P")).cpu.policy == "priority"
    assert SingleSiteSystem(tiny_config("C")).cpu.policy == "priority"


def test_same_seed_is_deterministic():
    first = SingleSiteSystem(tiny_config())
    second = SingleSiteSystem(tiny_config())
    assert first.run().summary() == second.run().summary()


def test_explicit_schedule_replayed_across_protocols():
    base = SingleSiteSystem(tiny_config("C"))
    schedule = base.schedule
    other = SingleSiteSystem(tiny_config("L"), schedule=schedule)
    assert other.schedule == schedule
    other.run()
    assert other.monitor.processed == 20


def test_explicit_schedule_in_the_past_rejected():
    schedule = [TransactionSpec(1.0, ((0, LockMode.WRITE),)),
                TransactionSpec(-1.0, ((1, LockMode.WRITE),))]
    with pytest.raises(ValueError, match="cannot schedule in the past"):
        SingleSiteSystem(tiny_config(), schedule=schedule)


def test_summary_merges_cc_stats_and_utilization():
    system = SingleSiteSystem(tiny_config())
    system.run()
    summary = system.summary()
    assert "cc_requests" in summary
    assert 0.0 <= summary["cpu_utilization"] <= 1.0


def test_run_single_site_returns_row():
    row = run_single_site(tiny_config())
    assert row["processed"] == 20


def test_replicate_averages_over_seeds():
    aggregated = replicate(tiny_config(), replications=3, base_seed=1)
    assert aggregated["runs"] == 3.0
    assert "percent_missed" in aggregated
    assert "throughput_std" in aggregated


def test_replicate_validates_count():
    with pytest.raises(ValueError):
        replicate(tiny_config(), replications=0)


def test_replicate_rejects_unknown_config_type():
    with pytest.raises(TypeError):
        replicate({"not": "a config"}, replications=1)


def test_sweep_attaches_x_values():
    def make(size):
        return dataclasses.replace(
            tiny_config(),
            workload=WorkloadConfig(n_transactions=10,
                                    mean_interarrival=10.0,
                                    transaction_size=size))

    series = run(Sweep(axis="x", values=(2, 4), variants=(None,),
                       config=lambda size, _: make(size),
                       metrics=(("processed", "processed"),),
                       tables=()),
                 replications=2)
    assert series == [{"x": 2, "processed": 10.0},
                      {"x": 4, "processed": 10.0}]


def test_compare_protocols_runs_same_workload():
    results = compare_protocols(tiny_config(), ["C", "L"],
                                replications=2)
    assert set(results) == {"C", "L"}
    assert all(row["processed"] == 20.0 for row in results.values())


def test_deadline_policy_uses_load_factor():
    config = dataclasses.replace(
        tiny_config(),
        workload=WorkloadConfig(n_transactions=30,
                                mean_interarrival=1.0,
                                transaction_size=3),
        timing=TimingConfig(slack_factor=5.0, load_factor=0.5))
    system = SingleSiteSystem(config)
    system.run()
    deadlines = [record.deadline - record.arrival_time
                 for record in system.monitor.records]
    # Later arrivals saw a loaded system: allowances vary.
    assert max(deadlines) > min(deadlines)
