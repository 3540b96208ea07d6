"""Transaction model: lifecycle, priorities, workload, managers."""

from .generator import (PeriodicStream, TransactionSpec, WorkloadGenerator,
                        merge_schedules)
from .manager import CostModel, spawn_transaction, transaction_manager
from .priority import edf_priority, proportional_deadline
from .trace import (TraceFormatError, dump_schedule, load_schedule)
from .transaction import (DeadlineMiss, DeadlockAbort, Transaction,
                          TransactionAbort, TransactionStatus,
                          TransactionType)

__all__ = [
    "CostModel",
    "DeadlineMiss",
    "DeadlockAbort",
    "PeriodicStream",
    "TraceFormatError",
    "Transaction",
    "TransactionAbort",
    "TransactionSpec",
    "TransactionStatus",
    "TransactionType",
    "WorkloadGenerator",
    "dump_schedule",
    "edf_priority",
    "load_schedule",
    "merge_schedules",
    "proportional_deadline",
    "spawn_transaction",
    "transaction_manager",
]
