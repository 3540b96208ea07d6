"""M/G/1-style response-time and deadline-miss estimation.

The public face of the analytic model: :func:`predict` maps a config
dataclass — the same object the simulator runs — to a
:class:`ModelPrediction` whose ``summary`` dict uses the *simulator's*
key names (``percent_missed``, ``throughput``, ``mean_blocked_time``,
``mean_response_time``), so model and simulation rows can be compared
field-for-field by the ``model`` spec of :mod:`repro.bench.figures`.

Cost: microseconds per configuration (a few hundred fixed-point or
chain iterations), against seconds per seeded simulation run — the
ratio that makes analytic pruning (:mod:`repro.model.prune`) pay off.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..constants import BLOCKING_CATEGORIES
from .blocking import BlockingPrediction, predict_blocking
from .workload import AnyConfig, WorkloadModel


@dataclasses.dataclass(frozen=True)
class ModelPrediction:
    """One configuration's analytic prediction."""

    workload: WorkloadModel
    blocking: BlockingPrediction
    #: Simulator-keyed aggregate predictions (see module docstring).
    summary: Dict[str, float]


def predict(config: AnyConfig) -> ModelPrediction:
    """Predict the summary statistics of ``config`` analytically."""
    workload = WorkloadModel.from_config(config)
    blocking = predict_blocking(workload)
    return ModelPrediction(workload=workload, blocking=blocking,
                           summary=_summary(workload, blocking))


def predict_summary(config: AnyConfig) -> Dict[str, float]:
    """Just the simulator-keyed summary dict of :func:`predict`."""
    return predict(config).summary


def _summary(workload: WorkloadModel,
             blocking: BlockingPrediction) -> Dict[str, float]:
    miss = blocking.miss_fraction
    n = workload.n_transactions
    committed = n * (1.0 - miss)
    # The simulator measures committed objects per unit elapsed time;
    # the run lasts roughly the arrival span stretched by the drain
    # tail (the horizon factor).
    throughput = (workload.arrival_rate * (1.0 - miss)
                  * workload.mean_size / workload.horizon_factor)
    summary = {
        "processed": float(n),
        "committed": committed,
        "missed": n * miss,
        "percent_missed": 100.0 * miss,
        "throughput": throughput,
        "mean_blocked_time": blocking.total_blocking,
        "mean_response_time": blocking.response_time,
        "model_utilization": blocking.utilization,
        "model_conflicts_per_txn": blocking.conflicts_per_txn,
        "model_deadlock_probability": blocking.deadlock_probability,
    }
    for name in BLOCKING_CATEGORIES:
        summary[f"model_{name}_blocking"] = blocking.categories[name]
    return summary
