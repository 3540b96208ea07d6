"""Guarded probes the hot layers drive when metering is on.

Each probe pre-creates its instruments at construction (so the hot
path never pays get-or-create hashing) and exposes tiny methods the
instrumented layers call behind ``is not None`` guards — the same
zero-cost-when-off contract the tracer honors (lint rule RPL008
enforces it for tracer calls).

None of the probes schedule events, draw randomness, read the host
clock, or mutate model state: they only move numbers into the
registry's instruments, stamped with simulated time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..constants import BLOCKING_CEILING, BLOCKING_DIRECT
from .instruments import Counter, Gauge, Histogram
from .registry import MetricsRegistry


class KernelProbe:
    """Event-queue depth, dispatch rate, and timer churn.

    The kernel's run loops compare the current event time against
    :attr:`next_window` (one float comparison per event) and call
    :meth:`sample` only when a sampling window has elapsed — so the
    per-event overhead with metrics on stays within the bench gate.
    """

    __slots__ = ("_registry", "_events", "_depth", "_dispatched",
                 "_cancelled", "_fused", "_seen_dispatched",
                 "_seen_cancelled", "_seen_fused")

    def __init__(self, registry: MetricsRegistry, events):
        self._registry = registry
        self._events = events
        self._depth = registry.gauge(
            "kernel.queue_depth", "pending events in the kernel queue")
        self._dispatched = registry.counter(
            "kernel.events_dispatched",
            "events popped and dispatched (a fused wake dispatches "
            "none: add kernel.wakes_fused for work scheduled)")
        self._cancelled = registry.counter(
            "kernel.events_cancelled", "events cancelled (timer churn)")
        self._fused = registry.counter(
            "kernel.wakes_fused",
            "completions whose resume ran in place, without an event")
        self._seen_dispatched = 0
        self._seen_cancelled = 0
        self._seen_fused = 0

    @property
    def next_window(self) -> float:
        return self._registry._window_end

    def sample(self, t: float, fused_wakes: int = 0) -> float:
        """Record queue statistics at ``t`` (``fused_wakes`` is the
        kernel's lifetime count; the queue never saw those resumes);
        returns the next window boundary for the kernel to compare
        against."""
        live, dispatched, cancelled = self._events.queue_stats()
        self._depth.set(t, live)
        delta = dispatched - self._seen_dispatched
        if delta > 0:
            self._dispatched.inc(t, delta)
            self._seen_dispatched = dispatched
        delta = cancelled - self._seen_cancelled
        if delta > 0:
            self._cancelled.inc(t, delta)
            self._seen_cancelled = cancelled
        delta = fused_wakes - self._seen_fused
        if delta > 0:
            self._fused.inc(t, delta)
            self._seen_fused = fused_wakes
        return self._registry._window_end


class CCProbe:
    """Lock-wait queue length, hold/blocking-time histograms, and
    ceiling-barrier occupancy for one concurrency-control instance."""

    __slots__ = ("_grants_immediate", "_grants_waited", "_blocks",
                 "_wait_queue", "_ceiling_blocked", "_wait_time",
                 "_hold_time", "_withdrawn", "_held_since", "_cause")

    def __init__(self, registry: MetricsRegistry, protocol: str,
                 site: Optional[int] = None):
        labels = {"protocol": protocol}
        if site is not None:
            labels["site"] = str(site)
        self._grants_immediate = registry.counter(
            "cc.grants", "lock grants", {**labels, "waited": "no"})
        self._grants_waited = registry.counter(
            "cc.grants", "lock grants", {**labels, "waited": "yes"})
        self._blocks = {
            cause: registry.counter(
                "cc.blocks", "lock requests blocked",
                {**labels, "cause": cause})
            for cause in (BLOCKING_DIRECT, BLOCKING_CEILING)}
        self._wait_queue = registry.gauge(
            "cc.wait_queue", "requests waiting for locks", labels)
        self._ceiling_blocked = registry.gauge(
            "cc.ceiling_blocked",
            "requests held at the ceiling barrier", labels)
        self._wait_time = registry.histogram(
            "cc.wait_time", "lock blocking time (simulated)", labels)
        self._hold_time = registry.histogram(
            "cc.hold_time", "lock hold time (simulated)", labels)
        self._withdrawn = registry.counter(
            "cc.withdrawn", "waiting requests withdrawn", labels)
        #: (tid, oid) -> grant time; drained on release.  Probe-private
        #: so protocol state carries no telemetry residue.
        self._held_since: Dict[Tuple[int, int], float] = {}
        #: request -> blocking cause, for the matching dequeue hook.
        #: Keyed by identity; never iterated, so no ordering leaks.
        self._cause: Dict[object, str] = {}

    def on_grant(self, t: float, txn, oid: int, waited: bool) -> None:
        if waited:
            self._grants_waited.inc(t)
        else:
            self._grants_immediate.inc(t)
        self._held_since.setdefault((txn.tid, oid), t)

    def on_block(self, t: float, request, cause: str) -> None:
        counter = self._blocks.get(cause)
        if counter is not None:
            counter.inc(t)
        self._wait_queue.inc(t)
        if cause == BLOCKING_CEILING:
            self._ceiling_blocked.inc(t)
        self._cause[request] = cause

    def on_unblock(self, t: float, request, waited: float) -> None:
        self._wait_queue.dec(t)
        if self._cause.pop(request, None) == BLOCKING_CEILING:
            self._ceiling_blocked.dec(t)
        self._wait_time.observe(t, waited)

    def on_withdraw(self, t: float, request) -> None:
        self._wait_queue.dec(t)
        if self._cause.pop(request, None) == BLOCKING_CEILING:
            self._ceiling_blocked.dec(t)
        self._withdrawn.inc(t)

    def on_release(self, t: float, txn, oids: Iterable[int]) -> None:
        held = self._held_since
        tid = txn.tid
        for oid in oids:
            since = held.pop((tid, oid), None)
            if since is not None:
                self._hold_time.observe(t, t - since)


class TxnProbe:
    """Active/blocked/committed/reneged transaction population."""

    __slots__ = ("_active", "_blocked", "_committed", "_restarts",
                 "_reneged", "_blocked_time")

    def __init__(self, registry: MetricsRegistry,
                 site: Optional[int] = None):
        labels = {} if site is None else {"site": str(site)}
        self._active = registry.gauge(
            "txn.active", "transactions between start and completion",
            labels)
        self._blocked = registry.gauge(
            "txn.blocked", "transactions blocked on a lock", labels)
        self._committed = registry.counter(
            "txn.committed", "committed transactions", labels)
        self._restarts = registry.counter(
            "txn.restarts", "deadlock-induced restarts", labels)
        self._reneged = registry.counter(
            "txn.reneged", "transactions that missed their deadline",
            labels)
        self._blocked_time = registry.histogram(
            "txn.blocked_time", "per-wait blocked time (simulated)",
            labels)

    def on_start(self, t: float) -> None:
        self._active.inc(t)

    def on_commit(self, t: float) -> None:
        self._active.dec(t)
        self._committed.inc(t)

    def on_restart(self, t: float) -> None:
        self._restarts.inc(t)

    def on_renege(self, t: float) -> None:
        self._active.dec(t)
        self._reneged.inc(t)

    def on_block(self, t: float) -> None:
        self._blocked.inc(t)

    def on_unblock(self, t: float, waited: float) -> None:
        self._blocked.dec(t)
        self._blocked_time.observe(t, waited)


class NetworkProbe:
    """In-flight messages per link, drops, and delivery delay."""

    __slots__ = ("_registry", "_in_flight", "_delay", "_dropped",
                 "_links")

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._in_flight = registry.gauge(
            "net.in_flight", "message copies in flight")
        self._delay = registry.histogram(
            "net.delay", "delivery delay (simulated)")
        self._dropped = registry.counter(
            "net.dropped", "message copies dropped")
        #: "src->dst" -> per-link sent counter, created lazily (the
        #: link set depends only on the deterministic topology).
        self._links: Dict[str, Counter] = {}

    def on_send(self, t: float, src: int, dst: int) -> None:
        link = f"{src}->{dst}"
        counter = self._links.get(link)
        if counter is None:
            counter = self._registry.counter(
                "net.sent", "message copies sent per link",
                {"link": link})
            self._links[link] = counter
        counter.inc(t)
        self._in_flight.inc(t)

    def on_deliver(self, t: float, lag: float) -> None:
        self._in_flight.dec(t)
        self._delay.observe(t, lag)

    def on_drop(self, t: float, in_flight: bool = True) -> None:
        """A copy was lost — in flight (site down) or before takeoff
        (fault injector dropped every copy)."""
        if in_flight:
            self._in_flight.dec(t)
        self._dropped.inc(t)


class CommsProbe:
    """Retry/backoff accounting for the reliable-comms layer."""

    __slots__ = ("_timeouts", "_retries", "_stale",
                 "_courier_retries", "_courier_failures")

    def __init__(self, registry: MetricsRegistry):
        self._timeouts = registry.counter(
            "comms.timeouts", "rpc attempts that timed out")
        self._retries = registry.counter(
            "comms.retries", "rpc retries sent")
        self._stale = registry.counter(
            "comms.stale_replies", "replies arriving after resolution")
        self._courier_retries = registry.counter(
            "comms.courier_retries", "courier redelivery attempts")
        self._courier_failures = registry.counter(
            "comms.courier_failures", "courier deliveries abandoned")

    def on_timeout(self, t: float) -> None:
        self._timeouts.inc(t)

    def on_retry(self, t: float, count: int = 1) -> None:
        self._retries.inc(t, count)

    def on_stale(self, t: float) -> None:
        self._stale.inc(t)

    def on_courier_retry(self, t: float) -> None:
        self._courier_retries.inc(t)

    def on_courier_failure(self, t: float) -> None:
        self._courier_failures.inc(t)


class TwoPCProbe:
    """Per-phase two-phase-commit latency histograms."""

    __slots__ = ("_phases",)

    def __init__(self, registry: MetricsRegistry):
        self._phases: Dict[str, Histogram] = {
            phase: registry.histogram(
                "dist.two_pc_phase", "2PC phase latency (simulated)",
                {"phase": phase})
            for phase in ("prepare", "decide")}

    def on_phase(self, t: float, phase: str, elapsed: float) -> None:
        histogram = self._phases.get(phase)
        if histogram is not None:
            histogram.observe(t, elapsed)
