"""repro.model — analytic blocking/response-time model.

The codebase's first predictive layer: closed-form blocking
decomposition, a birth–death lock-contention chain and an
M/G/1-with-reneging response-time/deadline-miss estimator, all driven
by the *same* config dataclasses the simulator consumes.  The model is
a cheap proxy — microseconds per configuration instead of seconds —
used two ways:

- ``repro model`` runs simulator and model over one grid and checks
  the mean relative error against the documented budget as claims
  (the ``model`` spec of :mod:`repro.bench.figures`);
- ``repro sweep --prune-model`` scores candidate configurations
  analytically and only simulates the most promising fraction
  (:mod:`repro.model.prune`).

See DESIGN.md §10 for the assumptions and their validity regimes.
"""

from .blocking import (BlockingPrediction, ceiling_blocking,
                       twopl_blocking)
from .markov import (BirthDeathChain, RenegingQueue, erlang_tail,
                     mm1_mean_wait, reneging_queue)
from .prune import PruneResult, model_scores, run_pruned_sweep
from .response import ModelPrediction, predict, predict_summary
from .workload import WorkloadModel

__all__ = [
    "BirthDeathChain",
    "BlockingPrediction",
    "ModelPrediction",
    "PruneResult",
    "RenegingQueue",
    "WorkloadModel",
    "ceiling_blocking",
    "erlang_tail",
    "mm1_mean_wait",
    "model_scores",
    "predict",
    "predict_summary",
    "reneging_queue",
    "run_pruned_sweep",
    "twopl_blocking",
]
