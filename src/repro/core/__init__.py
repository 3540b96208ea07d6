"""Core facade: configuration, builders, monitoring, experiments."""

from .builder import SingleSiteSystem
from .config import (DISTRIBUTED_MODES, DistributedConfig,
                     SingleSiteConfig, TimingConfig, WorkloadConfig)
from .experiment import (compare_protocols, replicate, replicate_many,
                         run_distributed, run_single_site)
from .metrics import (aggregate_runs, confidence_interval, mean,
                      missed_ratio, safe_ratio, sample_std,
                      throughput_ratio)
from .monitor import PerformanceMonitor, TransactionRecord
from .reporting import format_table

__all__ = [
    "DISTRIBUTED_MODES",
    "DistributedConfig",
    "PerformanceMonitor",
    "SingleSiteConfig",
    "SingleSiteSystem",
    "TimingConfig",
    "TransactionRecord",
    "WorkloadConfig",
    "aggregate_runs",
    "compare_protocols",
    "confidence_interval",
    "format_table",
    "mean",
    "missed_ratio",
    "replicate",
    "replicate_many",
    "run_distributed",
    "run_single_site",
    "safe_ratio",
    "sample_std",
    "throughput_ratio",
]
