"""repro — reproduction of Son & Chang (ICDCS 1990), "Performance
Evaluation of Real-Time Locking Protocols using a Distributed Software
Prototyping Environment".

The package rebuilds the paper's prototyping environment as a
deterministic discrete-event simulation library:

- :mod:`repro.kernel`    — StarLite-style concurrent kernel (processes,
  ports, timers, deterministic RNG streams);
- :mod:`repro.resources` — preemptive-priority CPUs, parallel I/O;
- :mod:`repro.db`        — data objects, lock table, multiversion store,
  replica catalog;
- :mod:`repro.cc`        — the locking protocols: 2PL (L), 2PL with
  priority (P), priority inheritance (PI), priority ceiling (C), the
  exclusive-lock ceiling ablation (Cx), and the post-paper suite
  (mpcp, dpcp, fmlp);
- :mod:`repro.protocols` — the protocol plugin registry (names,
  aliases, families, config schemas, factories, fingerprints);
- :mod:`repro.txn`       — transactions, EDF priorities, workload
  generation, transaction managers, 2PC;
- :mod:`repro.dist`      — virtual sites, network, Message Servers, and
  the global-ceiling vs local-ceiling (replicated) architectures;
- :mod:`repro.core`      — configuration, system builders, the
  Performance Monitor, and the experiment/sweep runner.

Quickstart::

    from repro import SingleSiteConfig, SingleSiteSystem

    system = SingleSiteSystem(SingleSiteConfig(protocol="C"))
    monitor = system.run()
    print(monitor.percent_missed, monitor.throughput())
"""

from .cc import (MPCP, PROTOCOLS, DistributedPriorityCeiling,
                 FMLPQueueLock, PriorityCeiling, PriorityInheritance,
                 TwoPhaseLocking, TwoPhaseLockingPriority, make_protocol)
from .protocols import REGISTRY as PROTOCOL_REGISTRY
from .core import (DistributedConfig, PerformanceMonitor,
                   SingleSiteConfig, SingleSiteSystem, TimingConfig,
                   WorkloadConfig, compare_protocols, replicate,
                   replicate_many, run_distributed, run_single_site)
from .dist import DistributedSystem
from .kernel import Kernel
from .txn import (CostModel, Transaction, TransactionSpec,
                  WorkloadGenerator)

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "DistributedConfig",
    "DistributedPriorityCeiling",
    "DistributedSystem",
    "FMLPQueueLock",
    "Kernel",
    "MPCP",
    "PROTOCOLS",
    "PROTOCOL_REGISTRY",
    "PerformanceMonitor",
    "PriorityCeiling",
    "PriorityInheritance",
    "SingleSiteConfig",
    "SingleSiteSystem",
    "TimingConfig",
    "Transaction",
    "TransactionSpec",
    "TwoPhaseLocking",
    "TwoPhaseLockingPriority",
    "WorkloadConfig",
    "WorkloadGenerator",
    "__version__",
    "compare_protocols",
    "make_protocol",
    "replicate",
    "replicate_many",
    "run_distributed",
    "run_single_site",
]
