"""Interval algebra and the blocking-time decomposition.

The accounting contract: ``direct + ceiling + network + other`` equals
the measured response time exactly (inversion is an overlapping
sub-measure, not an additive term).
"""

import pytest

from repro.trace import (TraceEvent, merge_intervals, reconstruct,
                         subtract_intervals, total_length)
from repro.trace.timeline import clip_interval


# ----------------------------------------------------------------------
# interval algebra
# ----------------------------------------------------------------------
def test_merge_overlapping_and_adjacent():
    merged = merge_intervals([(0, 2), (1, 3), (3, 4), (6, 7), (5, 5)])
    assert merged == [(0, 4), (6, 7)]


def test_total_length_counts_overlap_once():
    assert total_length([(0, 2), (1, 3)]) == 3.0
    assert total_length([]) == 0.0


def test_subtract_intervals():
    assert subtract_intervals([(0, 10)], [(2, 4), (6, 8)]) == [
        (0, 2), (4, 6), (8, 10)]
    assert subtract_intervals([(0, 5)], [(0, 5)]) == []
    assert subtract_intervals([(0, 5)], []) == [(0, 5)]
    assert subtract_intervals([(0, 3)], [(5, 6)]) == [(0, 3)]


def test_clip_interval():
    assert clip_interval((0, 10), (2, 5)) == (2, 5)
    assert clip_interval((3, 4), (2, 5)) == (3, 4)
    assert clip_interval((6, 9), (2, 5)) is None


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
def _events(raw):
    return [TraceEvent(t, kind, site, tid, data or None)
            for t, kind, site, tid, data in raw]


def test_breakdown_sums_exactly():
    events = _events([
        (0.0, "txn_start", 0, 1, {"priority": -5.0, "deadline": 100.0}),
        (1.0, "lock_block", 0, 1,
         {"oid": 7, "cause": "direct", "waiter_priority": -5.0,
          "holders": [[2, -9.0]]}),
        (4.0, "lock_grant", 0, 1, {"oid": 7, "waited": True}),
        (5.0, "rpc_begin", 0, 1, {"label": "DataRequest"}),
        (9.0, "rpc_end", 0, 1, {"label": "DataRequest"}),
        (12.0, "txn_commit", 0, 1, {}),
    ])
    run = reconstruct(events)
    timeline = run.transactions[1]
    breakdown = timeline.breakdown()
    assert breakdown["response"] == 12.0
    assert breakdown["direct"] == 3.0
    assert breakdown["ceiling"] == 0.0
    assert breakdown["network"] == 4.0
    assert breakdown["other"] == 5.0
    # The holder had lower base priority: the wait was an inversion.
    assert breakdown["inversion"] == 3.0
    assert (breakdown["direct"] + breakdown["ceiling"]
            + breakdown["network"] + breakdown["other"]
            == breakdown["response"])


def test_ceiling_block_without_low_priority_holder_is_not_inversion():
    events = _events([
        (0.0, "txn_start", 0, 1, {"priority": -5.0, "deadline": 50.0}),
        (1.0, "lock_block", 0, 1,
         {"oid": 3, "cause": "ceiling", "waiter_priority": -5.0,
          "holders": [[2, -1.0]]}),
        (2.5, "lock_grant", 0, 1, {"oid": 3, "waited": True}),
        (4.0, "txn_commit", 0, 1, {}),
    ])
    timeline = reconstruct(events).transactions[1]
    breakdown = timeline.breakdown()
    assert breakdown["ceiling"] == 1.5
    assert breakdown["inversion"] == 0.0
    assert timeline.block_spans[0].closed_by == "grant"


def test_rpc_overlapping_block_is_not_double_counted():
    # An RPC that spans a block: network wait is the RPC time *minus*
    # the blocked portion, so the decomposition still sums exactly.
    events = _events([
        (0.0, "txn_start", 1, 4, {"priority": -2.0, "deadline": 90.0}),
        (1.0, "rpc_begin", 1, 4, {"label": "LockRequest"}),
        (2.0, "lock_block", 1, 4,
         {"oid": 9, "cause": "direct", "waiter_priority": -2.0,
          "holders": [[7, -8.0]]}),
        (6.0, "lock_grant", 1, 4, {"oid": 9, "waited": True}),
        (7.0, "rpc_end", 1, 4, {"label": "LockRequest"}),
        (10.0, "txn_commit", 1, 4, {}),
    ])
    breakdown = reconstruct(events).transactions[4].breakdown()
    assert breakdown["direct"] == 4.0
    assert breakdown["network"] == 2.0   # (1,2) + (6,7)
    assert breakdown["other"] == 4.0
    assert (breakdown["direct"] + breakdown["ceiling"]
            + breakdown["network"] + breakdown["other"]
            == pytest.approx(breakdown["response"]))


def test_terminal_event_closes_open_spans():
    # A deadline miss while still blocked: the wait ends at the miss.
    events = _events([
        (0.0, "txn_start", 0, 2, {"priority": -3.0, "deadline": 5.0}),
        (1.0, "lock_block", 0, 2,
         {"oid": 4, "cause": "direct", "waiter_priority": -3.0,
          "holders": [[9, -7.0]]}),
        (5.0, "txn_miss", 0, 2, {"reason": "deadline"}),
    ])
    timeline = reconstruct(events).transactions[2]
    assert timeline.outcome == "miss"
    span = timeline.block_spans[0]
    assert (span.start, span.end) == (1.0, 5.0)
    assert span.closed_by == "txn_miss"
    assert timeline.breakdown()["direct"] == 4.0


def test_grant_without_recorded_block_is_tolerated():
    # Ring overflow can drop the open: the close must not crash.
    events = _events([
        (0.0, "txn_start", 0, 3, {"priority": -1.0, "deadline": 9.0}),
        (2.0, "lock_grant", 0, 3, {"oid": 1, "waited": True}),
        (3.0, "txn_commit", 0, 3, {}),
    ])
    timeline = reconstruct(events).transactions[3]
    assert timeline.block_spans == []
    assert timeline.breakdown()["response"] == 3.0


def test_unfinished_transaction_has_no_breakdown():
    events = _events([
        (0.0, "txn_start", 0, 8, {"priority": -1.0, "deadline": 9.0}),
    ])
    timeline = reconstruct(events).transactions[8]
    assert timeline.response is None
    assert timeline.breakdown() is None


# ----------------------------------------------------------------------
# profiling and the overlay
# ----------------------------------------------------------------------
def _profiled_run():
    return reconstruct(_events([
        (0.0, "txn_start", 0, 1, {"priority": -5.0, "deadline": 99.0}),
        (0.0, "txn_start", 0, 2, {"priority": -6.0, "deadline": 99.0}),
        (1.0, "lock_block", 0, 1,
         {"oid": 7, "cause": "direct", "waiter_priority": -5.0,
          "holders": [[2, -9.0]]}),
        (6.0, "lock_grant", 0, 1, {"oid": 7, "waited": True}),
        (2.0, "lock_block", 0, 2,
         {"oid": 5, "cause": "ceiling", "waiter_priority": -6.0,
          "holders": [[1, -5.0]]}),
        (4.0, "lock_grant", 0, 2, {"oid": 5, "waited": True}),
        (8.0, "txn_commit", 0, 1, {}),
        (9.0, "txn_commit", 0, 2, {}),
    ]), dropped=3)


def test_hot_locks_ranked_by_total_wait():
    hot = _profiled_run().hot_locks(top=5)
    assert [entry["oid"] for entry in hot] == [7, 5]
    assert hot[0]["total_wait"] == 5.0
    assert hot[0]["waits"] == 1


def test_longest_inversions():
    inversions = _profiled_run().longest_inversions(top=5)
    assert len(inversions) == 1
    assert inversions[0]["tid"] == 1
    assert inversions[0]["oid"] == 7
    assert inversions[0]["duration"] == 5.0


def test_overlay_sums_the_profiled_run():
    run = _profiled_run()
    overlay = run.overlay()
    assert overlay["trace_events"] == 8
    assert overlay["trace_dropped"] == 3
    assert overlay["trace_transactions"] == 2
    assert overlay["trace_decomposed"] == 2
    assert overlay["trace_direct_blocking"] == 5.0
    assert overlay["trace_ceiling_blocking"] == 2.0
    assert overlay["trace_inversion_time"] == 5.0
    assert overlay["trace_longest_inversion"] == 5.0
    assert overlay["trace_hottest_oid"] == 7
