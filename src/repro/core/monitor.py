"""Performance Monitor.

"The Performance Monitor interacts with the transaction managers to
record priority/timestamp and read/write data set for each transaction,
time when each event occurred, statistics for each transaction in each
node.  The statistics for a transaction includes arrival time, start
time, total processing time, blocked interval, whether deadline was
missed or not, and the number of aborts."

The monitor receives every finished transaction via the TM's ``on_done``
callback and exposes the aggregates the paper reports: normalised
throughput (data objects per second of *successful* transactions) and
the percentage of deadline-missing transactions
(%missed = 100 × missed / processed).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..txn.transaction import Transaction, TransactionStatus
from .metrics import ordered_sum

_COMMITTED = TransactionStatus.COMMITTED
_MISSED = TransactionStatus.MISSED


@dataclasses.dataclass(frozen=True)
class TransactionRecord:
    """The per-transaction statistics row."""

    tid: int
    site: int
    size: int
    priority: float
    arrival_time: float
    start_time: Optional[float]
    finish_time: Optional[float]
    deadline: float
    blocked_time: float
    restarts: int
    missed: bool
    committed: bool
    read_only: bool

    @property
    def processing_time(self) -> Optional[float]:
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time


class DegradationStats:
    """Fault-induced work and damage, counted where it happens.

    The fault-injection layer (:mod:`repro.faults`), the reliable
    request/reply helpers (:mod:`repro.dist.comms`) and the site
    crash/recovery path all write into this ledger; the monitor
    surfaces it in the summary row when a run carries an active
    :class:`~repro.faults.plan.FaultPlan` (``enabled``), so fault-free
    rows keep their historical key set.
    """

    COUNTERS = (
        "messages_dropped",      # injector loss draws
        "partition_drops",       # dropped by a directed partition
        "messages_delayed",      # jitter applied
        "messages_reordered",    # reorder window applied
        "messages_duplicated",   # link-level duplicates created
        "duplicates_suppressed",  # dedup'd at a receiver
        "rpc_timeouts",          # receive timeouts while waiting
        "rpc_retries",           # request resends after a timeout
        "stale_replies",         # discarded late/duplicate replies
        "courier_retries",       # at-least-once delivery resends
        "courier_failures",      # couriers that exhausted attempts
        "crashes",               # site crash events
        "recoveries",            # site recovery events
        "killed_by_crash",       # in-flight txns aborted by a crash
        "purged_messages",       # inbox messages lost to a crash
        "rejected_at_down_site",  # arrivals refused while down
        "resync_updates",        # anti-entropy updates at recovery
    )

    def __init__(self) -> None:
        #: Set by the system when the run has an active fault plan.
        self.enabled = False
        for name in self.COUNTERS:
            setattr(self, name, 0)
        #: site -> virtual time it last went down (while down).
        self._down_since: Dict[int, float] = {}
        #: site -> accumulated downtime over closed intervals.
        self._downtime: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # availability accounting
    # ------------------------------------------------------------------
    def mark_down(self, site: int, now: float) -> None:
        self.crashes += 1
        self._down_since.setdefault(site, now)

    def mark_up(self, site: int, now: float) -> None:
        self.recoveries += 1
        since = self._down_since.pop(site, None)
        if since is not None:
            self._downtime[site] = (self._downtime.get(site, 0.0)
                                    + (now - since))

    def downtime(self, site: int, now: float) -> float:
        """Accumulated downtime of ``site``, open interval included."""
        total = self._downtime.get(site, 0.0)
        since = self._down_since.get(site)
        if since is not None:
            total += max(0.0, now - since)
        return total

    def total_downtime(self, now: float) -> float:
        sites = set(self._downtime) | set(self._down_since)
        return ordered_sum([self.downtime(site, now) for site in sites])

    def availability(self, n_sites: int, now: float) -> float:
        """Fraction of site-uptime over the run: 1.0 means no site was
        ever down."""
        horizon = n_sites * now
        if horizon <= 0:
            return 1.0
        return 1.0 - min(1.0, self.total_downtime(now) / horizon)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, int]:
        """Counter snapshot with ``fault_``-prefixed keys (summary
        rows; availability keys are added by the system, which knows
        the clock)."""
        return {f"fault_{name}": getattr(self, name)
                for name in self.COUNTERS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        busy = {name: getattr(self, name) for name in self.COUNTERS
                if getattr(self, name)}
        return f"DegradationStats({busy})"


class PerformanceMonitor:
    """Collects finished transactions and computes run aggregates."""

    def __init__(self) -> None:
        self.records: List[TransactionRecord] = []
        self._first_arrival: Optional[float] = None
        self._last_finish: Optional[float] = None
        #: Fault/recovery ledger; inert unless a fault plan enables it.
        self.degradation = DegradationStats()

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def record(self, txn: Transaction) -> None:
        """The TM ``on_done`` callback: the transaction's fields, read
        once, make its row."""
        status = txn.status
        if status is not _COMMITTED and status is not _MISSED:
            raise ValueError(
                f"transaction {txn.tid} reported in state {status}")
        arrival, finish = txn.arrival_time, txn.finish_time
        self.records.append(TransactionRecord(
            tid=txn.tid, site=txn.site, size=len(txn.operations),
            priority=txn.priority, arrival_time=arrival,
            start_time=txn.start_time, finish_time=finish,
            deadline=txn.deadline, blocked_time=txn.blocked_time,
            restarts=txn.restarts, missed=status is _MISSED,
            committed=status is _COMMITTED, read_only=not txn.write_set))
        if self._first_arrival is None or arrival < self._first_arrival:
            self._first_arrival = arrival
        if self._last_finish is None or finish > self._last_finish:
            self._last_finish = finish

    # ------------------------------------------------------------------
    # the paper's aggregates
    # ------------------------------------------------------------------
    @property
    def processed(self) -> int:
        """Transactions that executed completely or were aborted."""
        return len(self.records)

    @property
    def committed(self) -> int:
        return self.summary()["committed"]

    @property
    def missed(self) -> int:
        return self.summary()["missed"]

    @property
    def percent_missed(self) -> float:
        """%missed = 100 × deadline-missing / processed."""
        return self.summary()["percent_missed"]

    @property
    def elapsed(self) -> float:
        """Observation interval: first arrival to last completion."""
        if self._first_arrival is None or self._last_finish is None:
            return 0.0
        return self._last_finish - self._first_arrival

    def throughput(self, elapsed: Optional[float] = None) -> float:
        """Normalised throughput: data objects accessed per second by
        *successful* transactions — "obtained by multiplying the
        transaction completion rate by the transaction size"."""
        if elapsed is None:
            return self.summary()["throughput"]
        if elapsed <= 0:
            return 0.0
        return sum(record.size for record in self.records
                   if record.committed) / elapsed

    @property
    def total_restarts(self) -> int:
        return self.summary()["restarts"]

    def mean_blocked_time(self) -> float:
        return self.summary()["mean_blocked_time"]

    def mean_response_time(self) -> Optional[float]:
        return self.summary()["mean_response_time"]

    def per_site(self) -> Dict[int, "PerformanceMonitor"]:
        """Split records into one monitor view per site."""
        result: Dict[int, PerformanceMonitor] = {}
        for record in self.records:
            view = result.setdefault(record.site, PerformanceMonitor())
            view.records.append(record)
            if (view._first_arrival is None
                    or record.arrival_time < view._first_arrival):
                view._first_arrival = record.arrival_time
            if (view._last_finish is None
                    or record.finish_time > view._last_finish):
                view._last_finish = record.finish_time
        return result

    def summary(self) -> dict:
        """One flat dict with every aggregate (experiment runner rows),
        from one pass over the records; the properties above read it.
        Float sums add left to right from int 0, :func:`ordered_sum`'s
        order, so a row reads the same on every interpreter."""
        committed = missed = restarts = objects = responses = 0
        blocked = response = 0
        for record in self.records:
            blocked += record.blocked_time
            restarts += record.restarts
            if record.missed:
                missed += 1
            if record.committed:
                committed += 1
                objects += record.size
                start, finish = record.start_time, record.finish_time
                if start is not None and finish is not None:
                    response += finish - start
                    responses += 1
        processed = len(self.records)
        elapsed = self.elapsed
        row = {
            "processed": processed,
            "committed": committed,
            "missed": missed,
            "percent_missed": (100.0 * missed / processed if processed
                               else 0.0),
            "throughput": objects / elapsed if elapsed > 0 else 0.0,
            "elapsed": elapsed,
            "restarts": restarts,
            "mean_blocked_time": (blocked / processed if processed
                                  else 0.0),
            "mean_response_time": (response / responses if responses
                                   else None),
        }
        if self.degradation.enabled:
            row.update(self.degradation.as_dict())
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PerformanceMonitor(processed={self.processed}, "
                f"missed={self.missed})")
