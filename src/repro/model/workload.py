"""Config → model adapter: workload statistics the analysis runs on.

:class:`WorkloadModel` derives, from the exact dataclasses the
simulator consumes (:mod:`repro.core.config`), every aggregate the
closed-form analysis needs: arrival rate, the transaction-size
distribution and its moments, per-transaction service demand,
object-access probability, deadline allowances, and the run-horizon
stretch factor.  Keeping the derivation in one adapter means the model
and the simulator can never disagree about what a configuration
*means* — both read the same fields.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple, Union

from ..core.config import DistributedConfig, SingleSiteConfig
from ..protocols import REGISTRY

AnyConfig = Union[SingleSiteConfig, DistributedConfig]

#: Protocols analysed with the ceiling (pipeline) model — the
#: table's ``ceiling`` family: the paper's C, its exclusive-semantics
#: ablation Cx (under the analysis both serialize lock holding the
#: same way) and dpcp (per-partition ceiling agents; on one site the
#: partition is everything).
CEILING_PROTOCOLS = REGISTRY.modelled_by(
    "ceiling")  # noqa: RPL009 - model solver, not a blocking category
#: Protocols analysed with the 2PL contention fixed point — every
#: other row: L, P, PI, plus the queue-lock suite (mpcp, fmlp).
#: Queue ordering and inheritance reorder *who* waits, which moves the
#: miss distribution but not the mean contention the model predicts.
TWOPL_PROTOCOLS = REGISTRY.modelled_by("twopl")


@dataclasses.dataclass(frozen=True)
class WorkloadModel:
    """Derived workload statistics for one configuration."""

    #: Protocol tag; one of CEILING_PROTOCOLS or TWOPL_PROTOCOLS.
    protocol: str
    #: "single", "local" or "global".
    mode: str
    n_transactions: int
    n_sites: int
    db_size: int
    #: Systemwide arrival rate (transactions per virtual-time unit).
    arrival_rate: float
    #: (size, probability) pairs of the transaction-size distribution.
    size_classes: Tuple[Tuple[int, float], ...]
    read_only_fraction: float
    write_fraction: float
    slack_factor: float
    per_object_time: float
    cpu_per_object: float
    io_per_object: float
    apply_cpu: float
    comm_delay: float

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: AnyConfig) -> "WorkloadModel":
        """Derive the model's view of ``config``.

        Accepts both config families; the distributed adapter records
        the mode and communication delay the per-protocol analysis
        branches on.
        """
        if isinstance(config, SingleSiteConfig):
            mode = "single"
            n_sites = 1
            comm_delay = 0.0
        elif isinstance(config, DistributedConfig):
            mode = config.mode
            n_sites = config.n_sites
            comm_delay = config.comm_delay
        else:
            raise TypeError(f"unknown config type "
                            f"{type(config).__name__}; expected "
                            f"SingleSiteConfig or DistributedConfig")
        config.validate()
        workload = config.workload
        costs = config.costs
        return cls(
            # Canonicalized through the table so aliases ("pcp")
            # classify identically to their protocol ("C").
            protocol=REGISTRY.resolve(
                getattr(config, "protocol", "C")).name,
            mode=mode,
            n_transactions=workload.n_transactions,
            n_sites=n_sites,
            db_size=config.db_size,
            arrival_rate=1.0 / workload.mean_interarrival,
            size_classes=_size_classes(workload.transaction_size,
                                       workload.size_jitter),
            read_only_fraction=workload.read_only_fraction,
            write_fraction=workload.write_fraction,
            slack_factor=config.timing.slack_factor,
            per_object_time=costs.per_object_time,
            cpu_per_object=costs.cpu_per_object,
            io_per_object=costs.io_per_object,
            apply_cpu=costs.apply_cpu,
            comm_delay=comm_delay,
        )

    # ------------------------------------------------------------------
    # size distribution moments
    # ------------------------------------------------------------------
    @property
    def mean_size(self) -> float:
        """E[size] over the uniform jittered size distribution."""
        return sum(size * p for size, p in self.size_classes)

    @property
    def second_moment_size(self) -> float:
        return sum(size * size * p for size, p in self.size_classes)

    # ------------------------------------------------------------------
    # demand and deadlines
    # ------------------------------------------------------------------
    def service_demand(self, size: float) -> float:
        """No-contention total service time of a ``size``-object txn
        (mirrors :meth:`repro.txn.manager.CostModel.service_demand`)."""
        return size * self.per_object_time

    @property
    def mean_service(self) -> float:
        """E[S]: mean no-contention service demand per transaction."""
        return self.service_demand(self.mean_size)

    def deadline_allowance(self, size: float) -> float:
        """Deadline minus arrival for a ``size``-object transaction
        (the §3.3 proportional-deadline formula with zero load
        factor)."""
        return self.slack_factor * size * self.per_object_time

    @property
    def mean_allowance(self) -> float:
        return self.deadline_allowance(self.mean_size)

    @property
    def patience(self) -> float:
        """Mean slack a transaction can absorb waiting before its
        deadline fires: allowance minus its own service demand."""
        return max(self.mean_allowance - self.mean_service, 1e-9)

    # ------------------------------------------------------------------
    # arrival horizon
    # ------------------------------------------------------------------
    @property
    def arrival_span(self) -> float:
        """Expected length of the arrival window (open arrivals stop
        after ``n_transactions``)."""
        return self.n_transactions / self.arrival_rate

    @property
    def horizon_factor(self) -> float:
        """Run-length stretch from the drain tail.

        The simulator runs until the last admitted transaction leaves,
        so measured rates are averaged over roughly
        ``arrival_span + mean_allowance`` — the tail grants a finite
        run slightly more capacity per offered transaction than the
        steady-state rates suggest.
        """
        return 1.0 + self.mean_allowance / max(self.arrival_span, 1e-9)

    # ------------------------------------------------------------------
    # operation mix and conflicts
    # ------------------------------------------------------------------
    @property
    def write_op_fraction(self) -> float:
        """Fraction of all issued operations that take write locks."""
        return (1.0 - self.read_only_fraction) * self.write_fraction

    @property
    def conflict_factor(self) -> float:
        """P(two operations on the same object conflict) — a pair of
        lock requests is compatible only when both are reads."""
        q = self.write_op_fraction
        both_read = (1.0 - q) * (1.0 - q)
        return 1.0 - both_read

    @property
    def update_rate(self) -> float:
        """Systemwide arrival rate of update transactions."""
        return self.arrival_rate * (1.0 - self.read_only_fraction)


def _size_classes(size: int, jitter: int
                  ) -> Tuple[Tuple[int, float], ...]:
    """The generator draws sizes uniformly from
    [max(1, size - jitter), size + jitter]."""
    if jitter == 0:
        return ((size, 1.0),)
    low = max(1, size - jitter)
    high = size + jitter
    values: List[int] = list(range(low, high + 1))
    p = 1.0 / len(values)
    return tuple((value, p) for value in values)
