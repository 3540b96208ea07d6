"""Span/timeline reconstruction and blocking-time accounting.

Turns a flat event stream into per-transaction timelines with the
blocking-time decomposition the real-time locking literature analyses
protocols by:

- **direct blocking** — waiting on an incompatible lock holder;
- **ceiling blocking** — admission denied by the rw-ceiling test with
  no direct lock conflict (the protocol's push-through cost);
- **inversion intervals** — the portion of blocking spent behind at
  least one holder of *lower* base priority than the waiter;
- **network wait** — request/reply time not explained by blocking
  (message transit, remote queueing, server service);
- **other** — everything else (CPU, I/O, local queueing).

The decomposition is exact by construction: block and RPC intervals are
clipped to the transaction's ``[start, finish]`` window, network wait
is the RPC union *minus* the block union, and ``other`` is the window
length minus both — so ``direct + ceiling + network + other`` equals
the measured response time (inversion is an overlapping sub-measure of
the blocking terms, not an additive one).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..constants import (BLOCKING_CEILING, BLOCKING_DIRECT,
                         BLOCKING_NETWORK, BLOCKING_OTHER)
from .events import TraceEvent

Interval = Tuple[float, float]


# ----------------------------------------------------------------------
# interval algebra (closed-open [lo, hi) segments)
# ----------------------------------------------------------------------
def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Union of intervals as a sorted, disjoint list."""
    ordered = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    merged: List[Interval] = []
    for lo, hi in ordered:
        if merged and lo <= merged[-1][1]:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def total_length(intervals: Iterable[Interval]) -> float:
    return sum(hi - lo for lo, hi in merge_intervals(intervals))


def subtract_intervals(minuend: Iterable[Interval],
                       subtrahend: Iterable[Interval]
                       ) -> List[Interval]:
    """Set difference ``minuend - subtrahend`` (both auto-merged)."""
    result: List[Interval] = []
    cuts = merge_intervals(subtrahend)
    for lo, hi in merge_intervals(minuend):
        cursor = lo
        for cut_lo, cut_hi in cuts:
            if cut_hi <= cursor or cut_lo >= hi:
                continue
            if cut_lo > cursor:
                result.append((cursor, cut_lo))
            cursor = max(cursor, cut_hi)
            if cursor >= hi:
                break
        if cursor < hi:
            result.append((cursor, hi))
    return result


def clip_interval(interval: Interval, window: Interval
                  ) -> Optional[Interval]:
    lo = max(interval[0], window[0])
    hi = min(interval[1], window[1])
    return (lo, hi) if hi > lo else None


# ----------------------------------------------------------------------
# per-transaction timelines
# ----------------------------------------------------------------------
class BlockSpan:
    """One closed lock wait of one transaction."""

    __slots__ = ("start", "end", "oid", "cause", "inverted", "closed_by")

    def __init__(self, start: float, end: float, oid: int, cause: str,
                 inverted: bool, closed_by: str):
        self.start = start
        self.end = end
        self.oid = oid
        self.cause = cause
        self.inverted = inverted
        self.closed_by = closed_by

    @property
    def duration(self) -> float:
        return self.end - self.start


class TransactionTimeline:
    """Reconstructed life of one transaction."""

    def __init__(self, tid: int):
        self.tid = tid
        self.site: Optional[int] = None
        self.priority: Optional[float] = None
        self.deadline: Optional[float] = None
        self.applier = False
        self.start: Optional[float] = None
        self.finish: Optional[float] = None
        self.outcome: Optional[str] = None   # committed | missed | abort
        self.restarts = 0
        self.block_spans: List[BlockSpan] = []
        self.rpc_spans: List[Tuple[float, float, str]] = []

    # ------------------------------------------------------------------
    @property
    def response(self) -> Optional[float]:
        if self.start is None or self.finish is None:
            return None
        return self.finish - self.start

    def _window(self) -> Optional[Interval]:
        if self.start is None or self.finish is None:
            return None
        return (self.start, self.finish)

    def _clipped(self, cause: Optional[str] = None) -> List[Interval]:
        window = self._window()
        if window is None:
            return []
        spans = [(span.start, span.end) for span in self.block_spans
                 if cause is None or span.cause == cause]
        return [clipped for clipped in
                (clip_interval(span, window) for span in spans)
                if clipped is not None]

    def breakdown(self) -> Optional[Dict[str, float]]:
        """The additive response-time decomposition (None until the
        transaction has both a start and a finish)."""
        window = self._window()
        if window is None:
            return None
        response = window[1] - window[0]
        direct = total_length(self._clipped(BLOCKING_DIRECT))
        ceiling = total_length(self._clipped(BLOCKING_CEILING))
        blocked = merge_intervals(self._clipped())
        rpc = [clipped for clipped in
               (clip_interval((lo, hi), window)
                for lo, hi, __ in self.rpc_spans)
               if clipped is not None]
        network = total_length(subtract_intervals(rpc, blocked))
        inversion = total_length(
            (span.start, span.end) for span in self.block_spans
            if span.inverted)
        other = response - direct - ceiling - network
        if abs(other) < 1e-9:
            other = 0.0  # swallow float residue (avoids "-0.000")
        return {"response": response, BLOCKING_DIRECT: direct,
                BLOCKING_CEILING: ceiling, BLOCKING_NETWORK: network,
                BLOCKING_OTHER: other, "inversion": inversion}


class RunTimeline:
    """All transaction timelines of one run plus run-level profiles."""

    def __init__(self) -> None:
        self.transactions: Dict[int, TransactionTimeline] = {}
        self.events_seen = 0
        self.dropped = 0

    def _timeline(self, tid: int) -> TransactionTimeline:
        timeline = self.transactions.get(tid)
        if timeline is None:
            timeline = self.transactions[tid] = TransactionTimeline(tid)
        return timeline

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    def hot_locks(self, top: int = 5) -> List[Dict[str, float]]:
        """Lock objects ranked by total wait time spent behind them."""
        waits: Dict[int, List[float]] = {}
        for timeline in self.transactions.values():
            for span in timeline.block_spans:
                entry = waits.setdefault(span.oid, [0.0, 0])
                entry[0] += span.duration
                entry[1] += 1
        ranked = sorted(waits.items(),
                        key=lambda item: (-item[1][0], item[0]))
        return [{"oid": oid, "total_wait": wait, "waits": int(count)}
                for oid, (wait, count) in ranked[:top]]

    def longest_inversions(self, top: int = 5
                           ) -> List[Dict[str, float]]:
        """Longest priority-inversion block spans across the run."""
        spans = [(span, timeline.tid)
                 for timeline in self.transactions.values()
                 for span in timeline.block_spans if span.inverted]
        spans.sort(key=lambda item: (-item[0].duration, item[1]))
        return [{"tid": tid, "oid": span.oid, "start": span.start,
                 "end": span.end, "duration": span.duration,
                 "cause": span.cause}
                for span, tid in spans[:top]]

    # ------------------------------------------------------------------
    # the monitor-summary overlay
    # ------------------------------------------------------------------
    def overlay(self) -> Dict[str, float]:
        """Run-level ``trace_*`` aggregates.

        Merged into summary rows at *presentation* time only (the CLI
        and ``repro report``): the live monitor summary stays
        byte-identical between traced and untraced runs."""
        direct = ceiling = network = inversion = 0.0
        decomposed = 0
        for timeline in self.transactions.values():
            breakdown = timeline.breakdown()
            if breakdown is None:
                continue
            decomposed += 1
            direct += breakdown[BLOCKING_DIRECT]
            ceiling += breakdown[BLOCKING_CEILING]
            network += breakdown[BLOCKING_NETWORK]
            inversion += breakdown["inversion"]
        inversions = self.longest_inversions(top=1)
        hot = self.hot_locks(top=1)
        return {
            "trace_events": self.events_seen,
            "trace_dropped": self.dropped,
            "trace_transactions": len(self.transactions),
            "trace_decomposed": decomposed,
            "trace_direct_blocking": direct,
            "trace_ceiling_blocking": ceiling,
            "trace_network_wait": network,
            "trace_inversion_time": inversion,
            "trace_longest_inversion": (
                inversions[0]["duration"] if inversions else 0.0),
            "trace_hottest_oid": hot[0]["oid"] if hot else -1,
            "trace_hottest_oid_wait": (
                hot[0]["total_wait"] if hot else 0.0),
        }


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
def _holders_invert(data: Dict) -> bool:
    """True when any recorded holder has lower base priority than the
    waiter — the span is a priority-inversion interval."""
    waiter = data.get("waiter_priority")
    if waiter is None:
        return False
    return any(priority < waiter
               for __, priority in data.get("holders", ()))


def reconstruct(events: Iterable[TraceEvent],
                dropped: int = 0) -> RunTimeline:
    """Build a :class:`RunTimeline` from an event stream.

    Tolerant of truncated streams (ring overflow): spans with no
    recorded open are ignored, spans with no recorded close are closed
    at the transaction's terminal event.
    """
    run = RunTimeline()
    run.dropped = dropped
    open_blocks: Dict[Tuple[int, int], Tuple[float, str, bool]] = {}
    open_rpcs: Dict[int, List[Tuple[float, str]]] = {}
    for event in events:
        run.events_seen += 1
        kind, tid = event.kind, event.tid
        data = event.data or {}
        if tid is None:
            continue
        if kind == "txn_start":
            timeline = run._timeline(tid)
            timeline.start = event.t
            timeline.site = event.site
            timeline.priority = data.get("priority")
            timeline.deadline = data.get("deadline")
            timeline.applier = bool(data.get("applier"))
        elif kind in ("txn_commit", "txn_miss", "txn_abort"):
            timeline = run._timeline(tid)
            timeline.finish = event.t
            timeline.outcome = kind[len("txn_"):]
            if timeline.site is None:
                timeline.site = event.site
            _close_open_spans(timeline, tid, event.t, kind,
                              open_blocks, open_rpcs)
        elif kind == "txn_restart":
            run._timeline(tid).restarts += 1
        elif kind == "lock_block":
            open_blocks[(tid, data.get("oid", -1))] = (
                event.t, data.get("cause", BLOCKING_DIRECT),
                _holders_invert(data))
        elif kind == "lock_grant" and data.get("waited"):
            _close_block(run, tid, data.get("oid", -1), event.t,
                         "grant", open_blocks)
        elif kind == "lock_withdraw":
            _close_block(run, tid, data.get("oid", -1), event.t,
                         "withdraw", open_blocks)
        elif kind == "rpc_begin":
            open_rpcs.setdefault(tid, []).append(
                (event.t, data.get("label", "")))
        elif kind == "rpc_end":
            stack = open_rpcs.get(tid)
            if stack:
                begin, label = stack.pop()
                run._timeline(tid).rpc_spans.append(
                    (begin, event.t, label))
    return run


def _close_block(run: RunTimeline, tid: int, oid: int, end: float,
                 closed_by: str, open_blocks: Dict) -> None:
    opened = open_blocks.pop((tid, oid), None)
    if opened is None:
        return
    start, cause, inverted = opened
    run._timeline(tid).block_spans.append(
        BlockSpan(start, end, oid, cause, inverted, closed_by))


def _close_open_spans(timeline: TransactionTimeline, tid: int,
                      end: float, closed_by: str, open_blocks: Dict,
                      open_rpcs: Dict) -> None:
    """A terminal event closes whatever the transaction still had
    open (a site crash can kill a waiter without a withdraw)."""
    for key in [key for key in open_blocks if key[0] == tid]:
        start, cause, inverted = open_blocks.pop(key)
        timeline.block_spans.append(
            BlockSpan(start, end, key[1], cause, inverted, closed_by))
    for begin, label in open_rpcs.pop(tid, []):
        timeline.rpc_spans.append((begin, end, label))
