"""Configuration dataclasses — the User Interface's parameter space.

The paper's menu-driven UI lets a user specify system configuration
(sites, topology, relative speeds), database configuration (size,
granularity, replication), load characteristics (transaction count,
read/write-set sizes, types, priorities, interarrival times) and the
concurrency-control method.  These dataclasses are the programmatic
equivalent; :mod:`repro.core.builder` plays the Configuration Manager,
"initializing necessary data structures for transaction processing
based on user specification".
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..faults.plan import FaultPlan
from ..protocols import REGISTRY
from ..txn.manager import CostModel


@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """Load characteristics (§2's 'load characteristics' menu)."""

    n_transactions: int = 200
    mean_interarrival: float = 2.0
    transaction_size: int = 8
    size_jitter: int = 0
    read_only_fraction: float = 0.0
    write_fraction: float = 1.0

    def validate(self) -> None:
        if self.n_transactions < 1:
            raise ValueError("n_transactions must be >= 1")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.transaction_size < 1:
            raise ValueError("transaction_size must be >= 1")
        if self.size_jitter < 0:
            raise ValueError("size_jitter must be >= 0")
        if not 0.0 <= self.read_only_fraction <= 1.0:
            raise ValueError("read_only_fraction must be in [0, 1]")
        if not 0.0 < self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in (0, 1]")


@dataclasses.dataclass(frozen=True)
class TimingConfig:
    """Deadline allowance (§3.3's deadline formula).  Priorities are
    always EDF, fixed at arrival."""

    slack_factor: float = 6.0

    def validate(self) -> None:
        if self.slack_factor <= 0:
            raise ValueError("slack_factor must be positive")


def _validate_engine(engine: str) -> None:
    # Deferred import: the kernel package must not depend on core.
    from ..kernel.turbo import ENGINES
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of "
                         f"{ENGINES}")


@dataclasses.dataclass(frozen=True)
class SingleSiteConfig:
    """One single-site experiment run (Figures 2 and 3)."""

    protocol: str = "C"
    db_size: int = 200
    workload: WorkloadConfig = dataclasses.field(
        default_factory=WorkloadConfig)
    timing: TimingConfig = dataclasses.field(default_factory=TimingConfig)
    costs: CostModel = dataclasses.field(default_factory=CostModel)
    seed: int = 1
    #: I/O model: None reproduces the paper's parallel-I/O assumption
    #: (infinite servers); an integer k bounds the I/O subsystem to a
    #: k-server disk array (sensitivity study A7).
    io_servers: Optional[int] = None
    #: Per-protocol parameters as ``(name, value)`` pairs (kept as a
    #: tuple so configs stay hashable and fingerprintable); validated
    #: against the protocol's row (only ``victim_policy`` exists).
    protocol_options: Tuple[Tuple[str, str], ...] = ()
    #: Event-core engine ("reference" or "turbo").  Excluded from the
    #: exec fingerprint (``metadata={"fingerprint": False}``): both
    #: engines are bitwise-identical, so engine choice must share one
    #: cache entry, never split it.
    engine: str = dataclasses.field(
        default="reference", metadata={"fingerprint": False})

    def validate(self) -> None:
        REGISTRY.resolve(self.protocol).validate_options(
            self.protocol_options)
        _validate_engine(self.engine)
        if self.db_size < 1:
            raise ValueError("db_size must be >= 1")
        if self.io_servers is not None and self.io_servers < 1:
            raise ValueError("io_servers must be >= 1 (or None for "
                             "parallel I/O)")
        self.workload.validate()
        self.timing.validate()
        if (self.workload.transaction_size + self.workload.size_jitter
                > self.db_size):
            raise ValueError("transaction_size exceeds database size")


DISTRIBUTED_MODES = ("global", "local")


@dataclasses.dataclass(frozen=True)
class DistributedConfig:
    """One distributed experiment run (Figures 4-6).

    Matches the paper's setup defaults: "three sites with fully
    interconnected communication network ... we did not include any I/O
    cost ... a memory-resident database system" — hence
    ``CostModel(io_per_object=0.0)``, the only I/O cost it accepts.
    """

    mode: str = "local"
    n_sites: int = 3
    comm_delay: float = 1.0
    db_size: int = 300
    workload: WorkloadConfig = dataclasses.field(
        default_factory=lambda: WorkloadConfig(read_only_fraction=0.5))
    timing: TimingConfig = dataclasses.field(default_factory=TimingConfig)
    costs: CostModel = dataclasses.field(
        default_factory=lambda: CostModel(io_per_object=0.0))
    seed: int = 1
    #: Enable the §4 extension: multiversion timestamped secondary
    #: copies for temporally consistent reads.
    temporal_versions: bool = False
    #: Serve read-only transactions from lock-free multiversion
    #: snapshots instead of read locks (local mode only; requires
    #: ``temporal_versions``).  The §4 mechanism as a scheduling
    #: optimisation: readers never block and never ceiling-block
    #: writers.
    snapshot_reads: bool = False
    #: Deterministic fault plan (message loss/delay/duplication/
    #: reordering, link partitions, site crashes) injected into the
    #: network, plus the timeout/retry recovery knobs.  ``None`` — and
    #: any plan with every perturbation at zero — runs the historical
    #: fault-free code path bit-for-bit.
    faults: Optional[FaultPlan] = None
    #: Concurrency-control protocol (table name or alias).  In global
    #: mode its row's placement decides where lock managers live (one
    #: global manager at site 0, or — DPCP — one agent per
    #: resource-primary site); in local mode every site runs its own
    #: instance.
    protocol: str = "C"
    #: Per-protocol parameters as ``(name, value)`` pairs.
    protocol_options: Tuple[Tuple[str, str], ...] = ()
    #: Event-core engine ("reference" or "turbo"); fingerprint-exempt
    #: for the same cache-sharing reason as the single-site field.
    engine: str = dataclasses.field(
        default="reference", metadata={"fingerprint": False})

    def validate(self) -> None:
        options = REGISTRY.resolve(self.protocol).validate_options(
            self.protocol_options)
        _validate_engine(self.engine)
        if options.get("victim_policy", "none") != "none":
            # Deadlock-victim aborts are a single-site-only option: the
            # ceiling-manager server queues remote requests with a grant
            # callback the 2PL victim machinery cannot interrupt, and a
            # local-mode manager would score its victim as a deadline
            # miss where the single-site manager restarts it.
            raise ValueError(f"{self.mode} mode requires victim_policy="
                             "'none' (deadlock-victim aborts are a "
                             "single-site-only option)")
        if self.mode not in DISTRIBUTED_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one "
                             f"of {DISTRIBUTED_MODES}")
        if self.n_sites < 2:
            raise ValueError("distributed runs need >= 2 sites")
        if self.comm_delay < 0:
            raise ValueError("comm_delay must be >= 0")
        if self.db_size < self.n_sites:
            raise ValueError("db_size must be >= n_sites")
        if self.costs.io_per_object != 0:
            # No distributed body does I/O; a non-zero cost would only
            # loosen every deadline (proportional_deadline charges it).
            raise ValueError("distributed runs require "
                             "costs.io_per_object == 0 (no I/O is "
                             "simulated)")
        if self.snapshot_reads and not self.temporal_versions:
            raise ValueError("snapshot_reads requires temporal_versions")
        if self.snapshot_reads and self.mode != "local":
            raise ValueError("snapshot_reads is a local-mode feature")
        if self.faults is not None:
            self.faults.validate(n_sites=self.n_sites)
        self.workload.validate()
        self.timing.validate()
