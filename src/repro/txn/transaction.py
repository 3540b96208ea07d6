"""Transactions: units of database work with timing constraints.

A transaction is a sequence of read/write operations on data objects,
executed under two-phase locking ("a transaction [must] acquire all the
locks before it releases any lock").  Its timing constraints are a ready
time and a hard deadline; the statistics fields mirror exactly what the
paper's Performance Monitor records: "arrival time, start time, total
processing time, blocked interval, whether deadline was missed or not,
and the number of aborts".
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from ..db.locks import LockMode
from ..kernel.errors import ProcessInterrupt

_READ = LockMode.READ
_WRITE = LockMode.WRITE
_NEVER = float("inf")


class TransactionAbort(ProcessInterrupt):
    """Base for interrupts that abort a transaction's execution."""


class DeadlineMiss(TransactionAbort):
    """The transaction's hard deadline expired; it is aborted and
    disappears from the system (the paper's policy for hard
    transactions)."""


class DeadlockAbort(TransactionAbort):
    """The transaction was chosen as a deadlock victim (2PL protocols
    only; the priority ceiling protocol never deadlocks)."""


class SiteFailure(TransactionAbort):
    """The transaction's site crashed (fail-stop) while it was in
    flight; it is aborted, its locks released, and it counts as a
    deadline miss — a crashed site cannot meet anything."""


class TransactionStatus(enum.Enum):
    PENDING = "pending"      # generated, not yet started
    RUNNING = "running"      # executing (or blocked on a lock/resource)
    COMMITTED = "committed"
    MISSED = "missed"        # aborted because the deadline expired


class TransactionType(enum.Enum):
    READ_ONLY = "read_only"
    UPDATE = "update"


Operation = Tuple[int, LockMode]


class Transaction:
    """One transaction instance with its declared access sets.

    ``operations`` is the ordered list of ``(oid, LockMode)`` accesses.
    ``read_set``/``write_set`` are *declared up front* — the priority
    ceiling protocol derives its per-object ceilings from the declared
    sets of active transactions, just as the paper's environment knows
    each transaction's "size of their read-sets and write-sets" from the
    workload specification.
    """

    def __init__(self, operations: Sequence[Operation],
                 arrival_time: float, deadline: float,
                 priority: float, site: int = 0,
                 txn_type: TransactionType = TransactionType.UPDATE,
                 periodic: bool = False, *, tid: int):
        if not operations:
            raise ValueError("a transaction needs at least one operation")
        #: Unique within one system, which numbers its transactions
        #: from 1 (hashed: see ``__hash__``).
        self.tid = tid
        self.operations: List[Operation] = list(operations)
        self.arrival_time = arrival_time
        self.deadline = deadline
        self.priority = float(priority)
        self.site = site
        self.txn_type = txn_type
        self.periodic = periodic
        # Each frozenset sees the operations' order of insertion, so it
        # iterates the same as one built by a filtering generator.
        self.read_set = frozenset([oid for oid, mode in operations
                                   if mode is _READ])
        self.write_set = frozenset([oid for oid, mode in operations
                                    if mode is _WRITE])
        # -- runtime ----------------------------------------------------
        self.process = None  # kernel Process of the transaction manager
        self.status = TransactionStatus.PENDING
        #: The armed deadline and the kernel it fires on (:meth:`start`).
        self._deadline_event = None
        self._kernel = None
        # -- statistics (the Performance Monitor's per-transaction row) -
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.blocked_time = 0.0
        self.restarts = 0  # deadlock-victim restarts

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of data objects accessed (the paper's key variable)."""
        return len(self.operations)

    @property
    def access_set(self) -> frozenset:
        return self.read_set | self.write_set

    @property
    def is_read_only(self) -> bool:
        return not self.write_set

    @property
    def processing_time(self) -> Optional[float]:
        """Total residence time (finish - start), if finished."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    @property
    def missed(self) -> bool:
        return self.status is TransactionStatus.MISSED

    @property
    def committed(self) -> bool:
        return self.status is TransactionStatus.COMMITTED

    # ------------------------------------------------------------------
    # lifecycle (called by the manager body; each fires its txn_* hook)
    # ------------------------------------------------------------------
    def start(self, kernel, applier: bool = False) -> None:
        """PENDING -> RUNNING: arm the hard deadline against
        ``self.process`` (queued, so one already past fires at the
        current instant; an applier's infinite one arms nothing)."""
        if self.status is not TransactionStatus.PENDING:
            raise ValueError(f"cannot start transaction in {self.status}")
        self.status = TransactionStatus.RUNNING
        now = self.start_time = kernel.now
        if self.deadline != _NEVER:
            self._kernel = kernel
            # Clamped to now, so the queue takes it without Kernel.at's
            # check for a time in the past.
            self._deadline_event = kernel.events.schedule(
                max(self.deadline, now), self._expire)
        hooks = kernel.hooks
        if hooks is not None:
            hooks.txn_start(now, self, applier)

    def commit(self, kernel, applier: bool = False) -> None:
        """RUNNING -> COMMITTED, the deadline disarmed."""
        if self.status is not TransactionStatus.RUNNING:
            raise ValueError(f"cannot commit transaction in {self.status}")
        event = self._deadline_event
        if event is not None:
            event.cancel()
            self._deadline_event = self._kernel = None
        self.status = TransactionStatus.COMMITTED
        self.finish_time = kernel.now
        hooks = kernel.hooks
        if hooks is not None:
            hooks.txn_commit(kernel.now, self, applier)

    def miss(self, kernel, reason: str = "deadline") -> None:
        """RUNNING or PENDING -> MISSED (aborted: it disappears), the
        deadline disarmed."""
        if self.status not in (TransactionStatus.RUNNING,
                               TransactionStatus.PENDING):
            raise ValueError(f"cannot miss transaction in {self.status}")
        event = self._deadline_event
        if event is not None:
            event.cancel()
            self._deadline_event = self._kernel = None
        self.status = TransactionStatus.MISSED
        self.finish_time = kernel.now
        hooks = kernel.hooks
        if hooks is not None:
            hooks.txn_miss(kernel.now, self, reason)

    def _expire(self) -> None:
        """The deadline event: abort the manager with
        :class:`DeadlineMiss` (a no-op once its process terminated)."""
        kernel = self._kernel
        self._deadline_event = self._kernel = None
        kernel.interrupt(self.process, DeadlineMiss(self.tid))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Transaction(tid={self.tid}, size={self.size}, "
                f"prio={self.priority:.6g}, status={self.status.value})")

    def __hash__(self) -> int:
        return self.tid

    def __eq__(self, other: object) -> bool:
        return self is other
