"""Performance monitor: records and aggregates."""

import math

import pytest

from repro.core.builder import SingleSiteSystem
from repro.core.config import SingleSiteConfig, WorkloadConfig
from repro.core.metrics import aggregate_runs, mean, ordered_sum
from repro.core.monitor import PerformanceMonitor
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


def test_rejects_transactions_that_never_started():
    monitor = PerformanceMonitor()
    with pytest.raises(ValueError, match="PENDING"):
        monitor.record(make_txn([(1, "w")], priority=1))
    assert monitor.records == []


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
    monitor = PerformanceMonitor()
    monitor.record(txn)
    record, = monitor.records
    assert record.tid == txn.tid and record.site == txn.site
    assert record.size == 3
    assert record.priority == txn.priority
    assert record.deadline == txn.deadline
    assert (record.arrival_time, record.start_time,
            record.finish_time) == (0.0, 1.0, 7.0)
    assert record.processing_time == 6.0
    assert record.blocked_time == 2.5
    assert record.restarts == 1
    assert record.committed and not record.missed
    assert not record.read_only
    reader = make_txn([(1, "r")], priority=1)
    kernel = Kernel()
    reader.start(kernel)
    reader.miss(kernel)
    monitor.record(reader)
    assert monitor.records[1].read_only and monitor.records[1].missed


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


def test_float_sums_add_left_to_right():
    # Left to right, 1e16 + 1.0 rounds back to 1e16 and the sum is 0.0;
    # a compensated sum (math.fsum, builtin sum() from Python 3.12 on)
    # keeps the 1.0.  A row must read the same on every interpreter.
    values = [1e16, 1.0, -1e16]
    assert math.fsum(values) == 1.0
    assert ordered_sum(values) == 0.0
    assert mean(values) == 0.0
    assert aggregate_runs([{"blocked": value} for value in values]
                          )["blocked"] == 0.0
    monitor = PerformanceMonitor()
    for value in values:
        txn = committed_txn()
        txn.blocked_time = value
        monitor.record(txn)
    assert monitor.summary()["mean_blocked_time"] == 0.0
    assert monitor.mean_blocked_time() == 0.0


def _properties(monitor):
    return {
        "processed": monitor.processed,
        "committed": monitor.committed,
        "missed": monitor.missed,
        "percent_missed": monitor.percent_missed,
        "throughput": monitor.throughput(),
        "elapsed": monitor.elapsed,
        "restarts": monitor.total_restarts,
        "mean_blocked_time": monitor.mean_blocked_time(),
        "mean_response_time": monitor.mean_response_time(),
    }


def test_summary_agrees_with_the_properties():
    # 2PL with deadlock victims on a small database: commits, misses
    # and restarts in one run.
    config = SingleSiteConfig(
        protocol="P", db_size=12, seed=7,
        workload=WorkloadConfig(n_transactions=60, mean_interarrival=2.0,
                                transaction_size=4, size_jitter=1),
        protocol_options=(("victim_policy", "youngest"),))
    monitor = SingleSiteSystem(config).run()
    row = monitor.summary()
    assert row["committed"] and row["missed"] and row["restarts"]
    assert row == _properties(monitor)
    empty = PerformanceMonitor()
    assert empty.summary() == _properties(empty)
    assert empty.summary()["mean_response_time"] is None
