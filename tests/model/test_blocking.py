"""Blocking solvers: degenerate exactness and sim-vs-model tolerance.

The degenerate cases are the ISSUE's acceptance anchors: a single
transaction never blocks (the model is *exact* — response equals the
service demand), and a contention-free workload predicts zero
blocking.  The tolerance tests compare the model against real seeded
simulation runs on small paper-baseline configurations.
"""

import dataclasses

import pytest

from repro.bench.figures import single_site_config
from repro.constants import (BLOCKING_CATEGORIES, BLOCKING_CEILING,
                             BLOCKING_DIRECT, BLOCKING_NETWORK)
from repro.core.config import SingleSiteConfig, WorkloadConfig
from repro.core.experiment import replicate, run_single_site
from repro.model.blocking import predict_blocking, waste_balance_miss
from repro.model.response import predict_summary
from repro.model.workload import WorkloadModel


def single(protocol="C", **kwargs):
    return SingleSiteConfig(protocol=protocol, db_size=200,
                            workload=WorkloadConfig(**kwargs))


# ----------------------------------------------------------------------
# degenerate cases: the model must be exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["C", "L", "P"])
def test_single_transaction_model_equals_service_time(protocol):
    config = single(protocol, n_transactions=1, transaction_size=8,
                    size_jitter=0)
    model = WorkloadModel.from_config(config)
    prediction = predict_blocking(model)
    assert prediction.response_time == config.costs.service_demand(8)
    assert prediction.total_blocking == 0.0
    assert prediction.miss_fraction == 0.0


def test_single_transaction_model_matches_simulator_exactly():
    config = single("C", n_transactions=1, transaction_size=8,
                    size_jitter=0)
    row = run_single_site(dataclasses.replace(config, seed=1))
    summary = predict_summary(config)
    assert summary["mean_response_time"] == pytest.approx(
        row["mean_response_time"])
    assert summary["mean_blocked_time"] == row["mean_blocked_time"] == 0
    assert summary["percent_missed"] == row["percent_missed"] == 0


def test_zero_contention_predicts_zero_blocking():
    # Read-only 2PL load: no lock pair conflicts, so the fixed point
    # must land on exactly zero conflicts and zero blocking.
    config = single("L", n_transactions=50, mean_interarrival=50.0,
                    transaction_size=4, read_only_fraction=1.0)
    prediction = predict_blocking(WorkloadModel.from_config(config))
    assert prediction.conflicts_per_txn == 0.0
    assert prediction.total_blocking == 0.0
    assert prediction.miss_fraction == pytest.approx(0.0, abs=1e-6)


def test_light_load_ceiling_blocking_is_negligible():
    config = single("C", n_transactions=50, mean_interarrival=200.0,
                    transaction_size=2)
    prediction = predict_blocking(WorkloadModel.from_config(config))
    assert prediction.total_blocking < 0.5
    assert prediction.miss_fraction < 0.01


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
def test_categories_follow_the_shared_taxonomy():
    for protocol in ("C", "L"):
        prediction = predict_blocking(WorkloadModel.from_config(
            single_site_config(protocol, 8)))
        assert set(prediction.categories) == set(BLOCKING_CATEGORIES)
    ceiling = predict_blocking(WorkloadModel.from_config(
        single_site_config("C", 8)))
    twopl = predict_blocking(WorkloadModel.from_config(
        single_site_config("L", 8)))
    # Ceiling blocking lands in the ceiling bucket, 2PL in direct.
    assert ceiling.categories[BLOCKING_CEILING] > 0
    assert ceiling.categories[BLOCKING_DIRECT] == 0
    assert twopl.categories[BLOCKING_DIRECT] > 0
    assert twopl.categories[BLOCKING_CEILING] == 0


def test_total_blocking_excludes_network():
    from repro.bench.figures import distributed_config
    prediction = predict_blocking(WorkloadModel.from_config(
        distributed_config("global", 2.0, 0.5)))
    assert prediction.categories[BLOCKING_NETWORK] > 0
    assert prediction.total_blocking == pytest.approx(
        sum(value for name, value in prediction.categories.items()
            if name != BLOCKING_NETWORK))


def test_unknown_protocol_is_rejected():
    model = dataclasses.replace(
        WorkloadModel.from_config(single("C")), protocol="X")
    with pytest.raises(ValueError):
        predict_blocking(model)


def test_waste_balance_miss():
    assert waste_balance_miss(0.5) == 0.0
    assert waste_balance_miss(1.0) == 0.0
    # ρ=2, w=0.35: P = (1 - 1/2)/0.65.
    assert waste_balance_miss(2.0) == pytest.approx(0.5 / 0.65)
    assert waste_balance_miss(1e9) <= 0.995


# ----------------------------------------------------------------------
# sim-vs-model tolerance on paper baselines (documented budget:
# DESIGN.md §10 / figures.ERROR_BUDGET)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol,size", [("C", 2), ("C", 8),
                                           ("L", 2), ("L", 8)])
def test_model_tracks_simulation_on_baselines(protocol, size):
    config = single_site_config(protocol, size)
    sim = replicate(config, replications=2)
    model = predict_summary(config)
    # percent_missed within the documented budget (floor 5 pp).
    err = (abs(model["percent_missed"] - sim["percent_missed"])
           / max(sim["percent_missed"], 5.0))
    assert err <= 0.30
    # mean_blocked_time within budget (floor 10 time units).
    err = (abs(model["mean_blocked_time"] - sim["mean_blocked_time"])
           / max(sim["mean_blocked_time"], 10.0))
    assert err <= 0.40
