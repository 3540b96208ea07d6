"""Closed-form blocking decomposition per protocol family.

Mirrors the trace layer's additive split (``response = direct +
ceiling + network + other``, :mod:`repro.trace.timeline`) on the
*predictive* side: each solver returns mean per-transaction blocking
by category plus the coupled miss fraction, because under deadlines
blocking and misses feed back on each other (missed transactions stop
issuing requests and stop consuming capacity).

Three regimes, three solvers:

- **Ceiling protocols (C/Cx)** — the rw-ceiling admission test
  serializes lock holding, so the lock stage is a single-server
  pipeline with service E[S]; waits come from the Erlang-A reneging
  chain (:mod:`repro.model.markov`) blended with a waste-balance
  overload estimate (:func:`waste_balance_miss`).
- **2PL family (L/P/PI)** — no serialization; blocking comes from
  pairwise conflicts.  A damped fixed point couples conflicts/txn
  ``m = κ·k_eff·N·L/D`` (Tay-style) with response time, the Erlang
  waiting-time tail past the deadline, and Gray's deadlock law
  ``P_dl = m²/2N``.
- **Distributed modes** — local mode is a per-site CPU-bound pipeline
  with replicated-update applier feedback; global mode stretches every
  lock hold by the GCM message round trip, moving the wait into the
  ceiling bucket and the transit into the network bucket.

The calibration constants below are documented in DESIGN.md §10
together with the experiments that fix them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..constants import (BLOCKING_CATEGORIES, BLOCKING_CEILING,
                         BLOCKING_DIRECT, BLOCKING_NETWORK)
from .markov import erlang_tail, reneging_queue
from .workload import CEILING_PROTOCOLS, TWOPL_PROTOCOLS, WorkloadModel

#: Waste factor w: the fraction of its full demand a deadline-missing
#: transaction consumes before aborting.  Enters the overload balance
#: ``ρ·(1-P+wP) = 1`` ⇒ ``P = (1-1/ρ)/(1-w)``.  Calibrated on the
#: Figure-2/3 grid (sizes 11..20): w = 0.35.
WASTE_FACTOR = 0.35
#: Global mode wastes less per miss — most rejected transactions die
#: waiting in the GCM queue before consuming any service at all.
GLOBAL_WASTE_FACTOR = 0.10
#: Near-critical load correction: finite runs (200 transactions)
#: reach only ~10% of the reneging chain's steady-state abandonment,
#: because the chain needs many sojourns to populate its tail.
TRANSIENT_FACTOR = 0.10
#: Some transactions always slip through even under extreme overload
#: (they arrive into a momentarily empty system).
MISS_CAP = 0.995

#: Damping and iteration budget of the 2PL fixed point.
_DAMPING = 0.3
_ITERATIONS = 300


@dataclasses.dataclass(frozen=True)
class BlockingPrediction:
    """Mean per-transaction blocking by category, plus the coupled
    contention quantities the response layer reports."""

    #: category name -> mean blocked time per transaction.
    categories: Dict[str, float]
    #: Predicted deadline-miss fraction in [0, 1].
    miss_fraction: float
    #: Estimated mean response time of *committed* transactions.
    response_time: float
    #: Bottleneck utilization after the horizon correction.
    utilization: float
    #: Mean lock conflicts per transaction (2PL family; 0 otherwise).
    conflicts_per_txn: float
    #: Per-transaction deadlock probability (2PL family; 0 otherwise).
    deadlock_probability: float

    @property
    def total_blocking(self) -> float:
        """Mean lock blocking per transaction (network excluded, like
        the simulator's ``mean_blocked_time``)."""
        return sum(value for name, value in self.categories.items()
                   if name != BLOCKING_NETWORK)


def _categories(direct: float = 0.0, ceiling: float = 0.0,
                network: float = 0.0) -> Dict[str, float]:
    values = {BLOCKING_DIRECT: direct, BLOCKING_CEILING: ceiling,
              BLOCKING_NETWORK: network}
    return {name: values.get(name, 0.0)
            for name in BLOCKING_CATEGORIES}


# ----------------------------------------------------------------------
# shared estimators
# ----------------------------------------------------------------------
def waste_balance_miss(utilization: float,
                       waste_factor: float = WASTE_FACTOR) -> float:
    """Overload miss fraction from the capacity balance.

    At ρ > 1 the system sheds exactly the excess: committed work
    ρ·(1-P) plus wasted work ρ·w·P must fit in unit capacity, so
    P = (1 - 1/ρ)/(1 - w), clamped to [0, MISS_CAP].
    """
    if utilization <= 1.0:
        return 0.0
    p = (1.0 - 1.0 / utilization) / (1.0 - waste_factor)
    return min(max(p, 0.0), MISS_CAP)


def _pipeline_wait(workload: WorkloadModel, arrival_rate: float,
                   service_time: float, overload_miss: float
                   ) -> "tuple[float, float]":
    """(miss fraction, mean wait) of a single-server lock pipeline.

    Blends the Erlang-A reneging chain (exact for the exponential
    abstraction, good near and below saturation) with the
    waste-balance overload estimate (good past saturation): the miss
    fraction takes whichever regime dominates, and the mean wait
    saturates at the patience — a waiter cannot wait past its
    deadline allowance.
    """
    patience = workload.patience
    queue = reneging_queue(arrival_rate, 1.0 / service_time,
                           1.0 / patience)
    miss = min(MISS_CAP,
               max(overload_miss,
                   TRANSIENT_FACTOR * queue.abandon_fraction))
    wait = patience * min(1.0, queue.mean_wait / patience
                          + overload_miss)
    return miss, wait


# ----------------------------------------------------------------------
# ceiling protocols, single site
# ----------------------------------------------------------------------
def ceiling_blocking(workload: WorkloadModel) -> BlockingPrediction:
    """PCP blocking: the rw-ceiling admission test serializes lock
    holding, so the lock stage is a pipeline of rate 1/E[S].

    All predicted blocking lands in the ceiling bucket: measured C
    runs classify >95% of blocks as conflict-free admission denials
    (``cc_ceiling_blocks``), the protocol's push-through cost.
    """
    if workload.n_transactions == 1:
        return _uncontended(workload)
    service = workload.mean_service
    rho = (workload.arrival_rate * service) / workload.horizon_factor
    overload = waste_balance_miss(rho)
    miss, wait = _pipeline_wait(workload, workload.arrival_rate,
                                service, overload)
    response = min(service + wait, workload.mean_allowance)
    return BlockingPrediction(
        categories=_categories(ceiling=wait),
        miss_fraction=miss,
        response_time=response,
        utilization=rho,
        conflicts_per_txn=0.0,
        deadlock_probability=0.0,
    )


# ----------------------------------------------------------------------
# 2PL family, single site
# ----------------------------------------------------------------------
def twopl_blocking(workload: WorkloadModel) -> BlockingPrediction:
    """2PL contention fixed point with deadline truncation.

    Couples four quantities until stationary: conflicts per
    transaction ``m = κ·k_eff·N·L/D`` (requests × population ×
    mean locks held × conflict factor over the database), response
    time ``R = base + m·W_c``, the deadline-miss probability (Erlang
    tail of the total wait past the slack, plus Gray's deadlock law),
    and the truncation feedback — a missing transaction stops issuing
    requests (``k_eff = k̄·(1-P/2)``) and leaves at its deadline
    (population counts min(R, d̄)).
    """
    if workload.n_transactions == 1:
        return _uncontended(workload)
    lam = workload.arrival_rate
    mean_size = workload.mean_size
    service = workload.mean_service
    allowance = workload.mean_allowance
    db = float(workload.db_size)
    kappa = workload.conflict_factor

    # CPU queueing before/between lock waits (I/O is parallel): an
    # M/M/1-flavoured per-object wait summed over the access path.
    rho_cpu = lam * mean_size * workload.cpu_per_object
    rho_cpu_eff = min(rho_cpu / workload.horizon_factor, 0.95)
    cpu_wait = (mean_size * (workload.cpu_per_object / 2.0)
                * rho_cpu_eff / (1.0 - rho_cpu_eff))
    base = service + cpu_wait

    response = base
    miss = 0.0
    conflicts = 0.0
    deadlock = 0.0
    for __ in range(_ITERATIONS):
        k_eff = mean_size * (1.0 - miss / 2.0)
        in_system = ((1.0 - miss) * min(response, allowance)
                     + miss * allowance)
        population = lam * in_system
        locks_held = k_eff / 2.0
        conflicts = kappa * k_eff * population * locks_held / db
        per_wait = min(response, allowance) / 2.0
        deadlock = min(1.0, conflicts * conflicts
                       / (2.0 * max(population, 1e-3)))
        if conflicts > 1e-6:
            tail = erlang_tail(conflicts, max(per_wait, 1e-9),
                               max(allowance - base, 1e-9))
        else:
            tail = 0.0
        miss_next = 1.0 - (1.0 - tail) * (1.0 - deadlock)
        response_next = min(base + conflicts * per_wait,
                            1.2 * allowance)
        response += _DAMPING * (response_next - response)
        miss += _DAMPING * (miss_next - miss)

    # Deadline censoring: a transaction's accumulated lock wait cannot
    # exceed its patience, so the raw m·W_c estimate saturates
    # harmonically instead of growing unboundedly in the thrash regime.
    raw_wait = conflicts * min(response, allowance) / 2.0
    wait = raw_wait / (1.0 + raw_wait / workload.patience)
    miss = min(miss, MISS_CAP)
    return BlockingPrediction(
        categories=_categories(direct=wait),
        miss_fraction=miss,
        response_time=min(base + wait, allowance),
        utilization=rho_cpu_eff,
        conflicts_per_txn=conflicts,
        deadlock_probability=deadlock,
    )


# ----------------------------------------------------------------------
# distributed modes (always ceiling-based, as in the paper)
# ----------------------------------------------------------------------
def local_mode_blocking(workload: WorkloadModel) -> BlockingPrediction:
    """Local mode: per-site ceiling pipelines plus applier feedback.

    Each site runs its own ceiling manager over one CPU; committed
    updates replicate asynchronously, so every commit adds
    ``(n_sites-1)·size·apply_cpu`` of applier work to the other
    sites.  The feedback is stabilising — misses reduce commits reduce
    applier load — and converges in a few damped iterations.
    """
    if workload.n_transactions == 1:
        return _uncontended(workload)
    lam_site = workload.arrival_rate / workload.n_sites
    service = workload.mean_service
    apply_demand = (workload.update_rate
                    * (workload.n_sites - 1)
                    * workload.mean_size * workload.apply_cpu
                    / workload.n_sites)
    miss = 0.0
    rho = 0.0
    for __ in range(_ITERATIONS):
        rho = ((lam_site * service + apply_demand * (1.0 - miss))
               / workload.horizon_factor)
        miss_next = waste_balance_miss(rho)
        miss += _DAMPING * (miss_next - miss)
    # The applier share slows the transaction pipeline: waits follow
    # the reneging chain at the reduced effective service rate.
    apply_share = min(apply_demand * (1.0 - miss)
                      / workload.horizon_factor, 0.9)
    slowed_service = service / (1.0 - apply_share)
    miss, wait = _pipeline_wait(workload, lam_site, slowed_service,
                                waste_balance_miss(rho))
    response = min(service + wait, workload.mean_allowance)
    return BlockingPrediction(
        categories=_categories(ceiling=wait),
        miss_fraction=miss,
        response_time=response,
        utilization=rho,
        conflicts_per_txn=0.0,
        deadlock_probability=0.0,
    )


def global_mode_blocking(workload: WorkloadModel) -> BlockingPrediction:
    """Global mode: one GCM pipeline, lock holds stretched by messages.

    Every lock request round-trips to the global ceiling manager, so a
    transaction holds the pipeline for ``E[S] + 2·delay·k̄`` — the
    message time is *inside* the serialized region, which is why
    global mode collapses so much earlier than local mode.
    """
    network = (2.0 * workload.comm_delay * workload.mean_size
               + 3.0 * workload.comm_delay)  # lock RTTs + 2PC
    if workload.n_transactions == 1:
        return _uncontended(workload, network=network)
    stretched = (workload.mean_service
                 + 2.0 * workload.comm_delay * workload.mean_size)
    rho = (workload.arrival_rate * stretched) / workload.horizon_factor
    overload = waste_balance_miss(rho, GLOBAL_WASTE_FACTOR)
    miss, wait = _pipeline_wait(workload, workload.arrival_rate,
                                stretched, overload)
    response = min(workload.mean_service + wait + network,
                   workload.mean_allowance)
    return BlockingPrediction(
        categories=_categories(ceiling=wait, network=network),
        miss_fraction=miss,
        response_time=response,
        utilization=rho,
        conflicts_per_txn=0.0,
        deadlock_probability=0.0,
    )


# ----------------------------------------------------------------------
# dispatch and degenerate cases
# ----------------------------------------------------------------------
def _uncontended(workload: WorkloadModel,
                 network: float = 0.0) -> BlockingPrediction:
    """A single transaction never blocks: the model is *exact* —
    response equals the service demand (plus message transit), and the
    only possible miss is an infeasible deadline."""
    response = workload.mean_service + network
    miss = 1.0 if response > workload.mean_allowance else 0.0
    return BlockingPrediction(
        categories=_categories(network=network),
        miss_fraction=miss,
        response_time=response,
        utilization=0.0,
        conflicts_per_txn=0.0,
        deadlock_probability=0.0,
    )


def predict_blocking(workload: WorkloadModel) -> BlockingPrediction:
    """Route a workload to its protocol family's solver."""
    if workload.mode == "local":
        return local_mode_blocking(workload)
    if workload.mode == "global":
        return global_mode_blocking(workload)
    if workload.protocol in CEILING_PROTOCOLS:
        return ceiling_blocking(workload)
    if workload.protocol in TWOPL_PROTOCOLS:
        return twopl_blocking(workload)
    raise ValueError(f"no analytic model for protocol "
                     f"{workload.protocol!r}; expected one of "
                     f"{CEILING_PROTOCOLS + TWOPL_PROTOCOLS}")
