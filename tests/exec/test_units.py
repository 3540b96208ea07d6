"""Run-unit planner: seed schedule, grouping, merge helpers."""

import pytest

from repro.exec import (group_rows, plan_batch, plan_replications,
                        plan_subset, replication_seeds, rows_by_group)
from repro.exec.units import check_runnable

from .conftest import tiny_config


def test_seed_schedule_matches_historical_runner():
    assert replication_seeds(3, base_seed=1) == [1, 1001, 2001]
    assert replication_seeds(2, base_seed=42) == [42, 1042]


def test_replication_count_validated():
    with pytest.raises(ValueError):
        replication_seeds(0)
    with pytest.raises(ValueError):
        plan_replications(tiny_config(), replications=0)


def test_plan_replications_seeds_and_indexes():
    units = plan_replications(tiny_config(seed=99), replications=3,
                              base_seed=5, group="g", start_index=10)
    assert [unit.index for unit in units] == [10, 11, 12]
    assert [unit.seed for unit in units] == [5, 1005, 2005]
    assert all(unit.group == "g" for unit in units)
    # The original config's own seed is replaced, not kept.
    assert all(unit.config.seed != 99 for unit in units)


def test_plan_batch_groups_and_contiguous_indexes():
    configs = [tiny_config(), tiny_config(protocol="L")]
    units = plan_batch(configs, replications=2, base_seed=1)
    assert [unit.index for unit in units] == [0, 1, 2, 3]
    assert [unit.group for unit in units] == [0, 0, 1, 1]
    assert units[2].config.protocol == "L"


def test_check_runnable_rejects_unknown_types():
    check_runnable(tiny_config())
    with pytest.raises(TypeError):
        check_runnable({"not": "a config"})


def test_group_rows_selects_in_unit_order():
    units = plan_batch([tiny_config(), tiny_config()], replications=2)
    rows = ["a0", "a1", "b0", "b1"]
    assert group_rows(units, rows, 0) == ["a0", "a1"]
    assert group_rows(units, rows, 1) == ["b0", "b1"]
    with pytest.raises(ValueError):
        group_rows(units, rows[:3], 0)


def test_rows_by_group_equals_group_rows_for_every_group():
    """One pass over the plan against the per-group filter, on a
    pruned plan whose group numbers have gaps."""
    configs = [tiny_config(seed=seed) for seed in range(6)]
    for units in (plan_subset(configs, [4, 1, 5], replications=3),
                  plan_batch(configs, replications=2)):
        rows = [f"row{unit.index}" for unit in units]
        grouped = rows_by_group(units, rows)
        groups = sorted({unit.group for unit in units})
        assert list(grouped) == groups
        for group in groups:
            assert grouped[group] == group_rows(units, rows, group)
        assert sum(len(chunk) for chunk in grouped.values()) == len(rows)
    assert rows_by_group([], []) == {}
    with pytest.raises(ValueError):
        rows_by_group(units, rows[:-1])
