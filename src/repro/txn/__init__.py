"""Transaction model: lifecycle, priorities, workload, managers, 2PC."""

from .generator import (PeriodicStream, TransactionSpec, WorkloadGenerator,
                        merge_schedules)
from .manager import CostModel, spawn_transaction, transaction_manager
from .priority import edf_priority, proportional_deadline
from .trace import (TraceFormatError, dump_schedule, load_schedule)
from .transaction import (DeadlineMiss, DeadlockAbort, Transaction,
                          TransactionAbort, TransactionStatus,
                          TransactionType)
from .two_phase_commit import CommitPhase, TwoPhaseCommit

__all__ = [
    "CommitPhase",
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
    "TwoPhaseCommit",
    "WorkloadGenerator",
    "dump_schedule",
    "edf_priority",
    "load_schedule",
    "merge_schedules",
    "proportional_deadline",
    "spawn_transaction",
    "transaction_manager",
]
