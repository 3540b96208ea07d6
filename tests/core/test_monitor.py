"""Performance monitor: records and aggregates."""

import pytest

from repro.core.monitor import PerformanceMonitor, TransactionRecord
from repro.kernel import Kernel
from tests.conftest import make_txn


def finished_txn(size, arrival, start, finish, committed):
    """A transaction started and ended on a kernel at the given times."""
    txn = make_txn([(index, "w") for index in range(size)], priority=1,
                   arrival=arrival)
    kernel = Kernel()
    kernel.run(until=start)
    txn.start(kernel)
    kernel.run(until=finish)
    if committed:
        txn.commit(kernel)
    else:
        txn.miss(kernel)
    return txn


def committed_txn(size=4, start=0.0, finish=10.0, arrival=0.0):
    return finished_txn(size, arrival, start, finish, committed=True)


def missed_txn(size=4, arrival=0.0, finish=20.0):
    return finished_txn(size, arrival, arrival, finish, committed=False)


def test_rejects_unfinished_transactions():
    monitor = PerformanceMonitor()
    running = make_txn([(1, "w")], priority=1)
    running.start(Kernel())
    with pytest.raises(ValueError):
        monitor.record(running)


def test_counts_and_percent_missed():
    monitor = PerformanceMonitor()
    for __ in range(3):
        monitor.record(committed_txn())
    monitor.record(missed_txn())
    assert monitor.processed == 4
    assert monitor.committed == 3
    assert monitor.missed == 1
    assert monitor.percent_missed == 25.0


def test_percent_missed_empty_is_zero():
    assert PerformanceMonitor().percent_missed == 0.0


def test_throughput_counts_only_committed_objects():
    monitor = PerformanceMonitor()
    monitor.record(committed_txn(size=4, arrival=0.0, finish=10.0))
    monitor.record(missed_txn(size=100, arrival=1.0, finish=20.0))
    # elapsed = 20 - 0; objects = 4 (missed txn contributes nothing)
    assert monitor.throughput() == pytest.approx(4 / 20)


def test_throughput_with_explicit_window():
    monitor = PerformanceMonitor()
    monitor.record(committed_txn(size=10))
    assert monitor.throughput(elapsed=5.0) == 2.0


def test_elapsed_spans_first_arrival_to_last_finish():
    monitor = PerformanceMonitor()
    monitor.record(committed_txn(arrival=2.0, start=2.0, finish=10.0))
    monitor.record(committed_txn(arrival=5.0, start=5.0, finish=30.0))
    assert monitor.elapsed == 28.0


def test_record_from_transaction_carries_statistics():
    txn = committed_txn(size=3, start=1.0, finish=7.0)
    txn.blocked_time = 2.5
    txn.restarts = 1
    record = TransactionRecord.from_transaction(txn)
    assert record.size == 3
    assert record.processing_time == 6.0
    assert record.blocked_time == 2.5
    assert record.restarts == 1
    assert record.committed and not record.missed


def test_mean_blocked_and_response_time():
    monitor = PerformanceMonitor()
    first = committed_txn(start=0.0, finish=10.0)
    first.blocked_time = 4.0
    second = committed_txn(start=0.0, finish=20.0)
    second.blocked_time = 0.0
    monitor.record(first)
    monitor.record(second)
    assert monitor.mean_blocked_time() == 2.0
    assert monitor.mean_response_time() == 15.0


def test_mean_response_time_none_without_commits():
    monitor = PerformanceMonitor()
    monitor.record(missed_txn())
    assert monitor.mean_response_time() is None


def test_per_site_split():
    monitor = PerformanceMonitor()
    a = committed_txn()
    # a.site defaults to 0
    b = missed_txn()
    b.site = 1
    monitor.record(a)
    monitor.record(b)
    views = monitor.per_site()
    assert views[0].processed == 1
    assert views[1].missed == 1


def test_summary_keys_complete():
    monitor = PerformanceMonitor()
    monitor.record(committed_txn())
    summary = monitor.summary()
    for key in ("processed", "committed", "missed", "percent_missed",
                "throughput", "elapsed", "restarts",
                "mean_blocked_time", "mean_response_time"):
        assert key in summary
