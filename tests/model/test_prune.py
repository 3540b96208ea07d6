"""Model-guided pruning: selection, retention, and row merging."""

import pytest

from repro.core.config import SingleSiteConfig, WorkloadConfig
from repro.model.prune import (model_scores, run_pruned_sweep,
                               select_configs)


def small_config(protocol="C", interarrival=25.0, size=2):
    return SingleSiteConfig(
        protocol=protocol, db_size=200,
        workload=WorkloadConfig(n_transactions=30,
                                mean_interarrival=interarrival,
                                transaction_size=size, size_jitter=1))


def test_select_configs_keeps_best_fraction():
    scores = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert select_configs(scores, keep_fraction=0.4) == [1, 3]
    assert select_configs(scores, keep_fraction=0.4,
                          best="max") == [0, 4]


def test_select_configs_always_keeps_one():
    assert select_configs([9.0, 1.0], keep_fraction=0.01) == [1]


def test_select_configs_breaks_ties_by_input_order():
    assert select_configs([2.0, 2.0, 2.0], keep_fraction=0.33) == [0]


def test_select_configs_validation():
    with pytest.raises(ValueError):
        select_configs([1.0], keep_fraction=0.0)
    with pytest.raises(ValueError):
        select_configs([1.0], keep_fraction=1.5)
    with pytest.raises(ValueError):
        select_configs([1.0], best="median")


def test_model_scores_unknown_metric():
    with pytest.raises(KeyError):
        model_scores([small_config()], metric="no_such_metric")


def test_pruned_sweep_retains_top_ranked_configs():
    # Light-load configs score low (good); the heavy config must be
    # pruned and carry the model's own prediction instead.
    configs = [small_config(interarrival=25.0, size=2),
               small_config(interarrival=25.0, size=3),
               small_config(interarrival=1.0, size=12)]
    result = run_pruned_sweep(configs, metric="percent_missed",
                              keep_fraction=0.5, replications=1)
    assert result.kept == [0, 1]
    assert result.n_skipped == 1
    assert result.saved_fraction == pytest.approx(1 / 3)
    assert len(result.rows) == len(configs)
    assert not result.rows[0]["pruned"]
    assert not result.rows[1]["pruned"]
    assert result.rows[2]["pruned"]
    # Pruned rows report the model score they were ranked by.
    assert result.rows[2]["percent_missed"] == \
        pytest.approx(result.scores[2])
    # Simulated rows carry real simulator output, not the model's.
    assert "processed" in result.rows[0]


def test_pruned_sweep_always_simulates_a_borrowed_model_family():
    # mpcp is a queue lock scored by the 2PL solver, which nobody
    # validated for it: never pruned, however badly it ranks, and the
    # keep fraction applies to the validated remainder alone.
    configs = [small_config("mpcp", interarrival=1.0, size=12),
               small_config("C", interarrival=25.0, size=2),
               small_config("C", interarrival=1.0, size=12),
               small_config("mpcp", interarrival=25.0, size=2)]
    result = run_pruned_sweep(configs, keep_fraction=0.5,
                              replications=1)
    assert result.unprunable == [0, 3]
    assert result.kept == [0, 1, 3]
    assert [row["pruned"] for row in result.rows] == [
        False, False, True, False]


def test_pruned_sweep_saves_at_least_half_at_default_fraction():
    # The acceptance grid shape: keep_fraction 0.4 must skip >= 50%.
    configs = [small_config(size=size) for size in range(2, 9)] * 3
    scores = model_scores(configs)
    kept = select_configs(scores, keep_fraction=0.4)
    assert (len(configs) - len(kept)) / len(configs) >= 0.5
