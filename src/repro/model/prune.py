"""Model-guided sweep pruning: simulate only what the model ranks.

``repro sweep --prune-model`` scores every configuration of a sweep
analytically (microseconds each), keeps the top fraction by the chosen
metric, and hands only the survivors to the execution engine via
:func:`repro.exec.plan_subset`.  Skipped configs still appear in the
result — carrying the model's prediction and a ``pruned`` flag — so
the output stays one row per requested config.

Because :func:`plan_subset` preserves the full-batch group numbering,
the surviving units' cache fingerprints are identical to an unpruned
sweep's: a later full run reuses every row the pruned run produced.

The model ranks only what ``repro model`` holds it to: a
config whose protocol is modelled by another family's solver (the
queue locks ``mpcp`` and ``fmlp`` borrow the 2PL fixed point, which
does not compute their blocking bounds — Brandenburg,
arXiv:1909.09600) is *unprunable* and always simulated.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

from ..core.metrics import aggregate_runs
from ..exec import plan_subset, rows_by_group, run_units
from ..protocols import REGISTRY
from .response import predict_summary


@dataclasses.dataclass(frozen=True)
class PruneResult:
    """Outcome of a model-pruned sweep."""

    #: Ranking metric (a simulator summary key, e.g. percent_missed).
    metric: str
    #: Model score per requested config, in input order.
    scores: List[float]
    #: Indices (into the request) that were actually simulated.
    kept: List[int]
    #: The subset of ``kept`` simulated because no validated solver
    #: covers the config's protocol family, whatever its score.
    unprunable: List[int]
    #: One row per requested config: simulated summaries for kept
    #: configs, model predictions (with ``pruned: True``) for skipped.
    rows: List[Dict[str, float]]
    replications: int

    @property
    def n_configs(self) -> int:
        return len(self.scores)

    @property
    def n_skipped(self) -> int:
        return self.n_configs - len(self.kept)

    @property
    def saved_fraction(self) -> float:
        """Fraction of simulation runs the model pruned away."""
        if not self.n_configs:
            return 0.0
        return self.n_skipped / self.n_configs


def model_scores(configs: Sequence[object],
                 metric: str = "percent_missed") -> List[float]:
    """Score each config analytically by one summary metric."""
    scores = []
    for config in configs:
        summary = predict_summary(config)
        if metric not in summary:
            raise KeyError(f"model does not predict {metric!r}; "
                           f"choose one of {sorted(summary)}")
        scores.append(float(summary[metric]))
    return scores


def select_configs(scores: Sequence[float],
                   keep_fraction: float = 0.4,
                   best: str = "min") -> List[int]:
    """Indices of the best-scoring fraction, in input order.

    ``best="min"`` keeps the lowest scores (miss rate, blocking time);
    ``best="max"`` keeps the highest (throughput).  At least one config
    always survives; ties are broken by input order, so the selection
    is deterministic.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    if best not in ("min", "max"):
        raise ValueError("best must be 'min' or 'max'")
    n_keep = max(1, math.ceil(len(scores) * keep_fraction))
    sign = 1.0 if best == "min" else -1.0
    ranked = sorted(range(len(scores)),
                    key=lambda i: (sign * scores[i], i))
    return sorted(ranked[:n_keep])


def run_pruned_sweep(configs: Sequence[object],
                     metric: str = "percent_missed",
                     keep_fraction: float = 0.4, best: str = "min",
                     replications: int = 10, base_seed: int = 1, *,
                     jobs: Optional[int] = None, cache=None,
                     progress=None) -> PruneResult:
    """Score analytically, simulate the survivors, merge the rows."""
    configs = list(configs)
    scores = model_scores(configs, metric=metric)
    rankable, unprunable = [], []
    for index, config in enumerate(configs):
        spec = REGISTRY.resolve(config.protocol)
        (rankable if spec.family == spec.model_family
         else unprunable).append(index)
    chosen = select_configs([scores[index] for index in rankable],
                            keep_fraction=keep_fraction, best=best)
    kept = sorted([rankable[index] for index in chosen] + unprunable)
    units = plan_subset(configs, kept, replications=replications,
                        base_seed=base_seed)
    result = run_units(units, jobs=jobs, cache=cache,
                       progress=progress).require_success()
    simulated = {
        group: aggregate_runs(rows)
        for group, rows in rows_by_group(units, result.rows).items()}
    rows: List[Dict[str, float]] = []
    for index, config in enumerate(configs):
        if index in simulated:
            row = dict(simulated[index])
            row["pruned"] = False
        else:
            row = dict(predict_summary(config))
            row["pruned"] = True
        row["model_score"] = scores[index]
        rows.append(row)
    return PruneResult(metric=metric, scores=scores, kept=kept,
                       unprunable=unprunable, rows=rows,
                       replications=replications)
