"""The probes: the metrics layer's subscribers to the kernel's hooks.

Each probe implements the hooks (:mod:`repro.kernel.hooks`) of the
layer it measures and moves numbers into instruments it created up
front (so the hot path never pays get-or-create hashing), stamped with
simulated time.  :func:`probes` builds the set for one registry;
``metering()`` subscribes it.

None of the probes schedule events, draw randomness, read the host
clock, or mutate model state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Tuple

from ..constants import BLOCKING_CEILING, BLOCKING_DIRECT
from .instruments import WINDOW, Counter, Histogram

if TYPE_CHECKING:
    from .registry import MetricsRegistry


class KernelProbe:
    """Event-queue depth, dispatch rate, and timer churn — and the
    registry's window clock.

    The kernel's run loops compare the current event time against
    :meth:`sample_due` (one float comparison per event) and call
    :meth:`kernel_sample` at the first event of each new window, before
    that event's hooks fire: it closes the elapsed windows, then
    records the queue.
    """

    __slots__ = ("_registry", "_due", "_depth", "_counters", "_seen")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        #: When the registry's open window ends.
        self._due = WINDOW
        self._depth = registry.gauge(
            "kernel.queue_depth", "pending events in the kernel queue")
        self._counters = (
            registry.counter(
                "kernel.events_dispatched",
                "events popped and dispatched (a fused wake dispatches "
                "none: add kernel.wakes_fused for work scheduled)"),
            registry.counter(
                "kernel.events_cancelled",
                "events cancelled (timer churn)"),
            registry.counter(
                "kernel.wakes_fused",
                "completions whose resume or chained follow-on start "
                "ran in place, without an event"))
        #: kernel -> the lifetime (dispatched, cancelled, fused) totals
        #: already counted.
        self._seen: Dict[object, Tuple[int, int, int]] = {}

    def sample_due(self) -> float:
        return self._due

    def kernel_sample(self, t: float, kernel) -> float:
        """Close the elapsed windows and record queue statistics at
        ``t`` (the queue never saw the resumes, or the chained
        follow-on starts, that ``kernel.fused_wakes`` counts); returns
        the next :meth:`sample_due`."""
        self._due = self._registry.close_windows(t)
        live, dispatched, cancelled = kernel.events.queue_stats()
        self._depth.set(t, live)
        totals = (dispatched, cancelled, kernel.fused_wakes)
        seen = self._seen.get(kernel, (0, 0, 0))
        for counter, total, before in zip(self._counters, totals, seen):
            if total > before:
                counter.inc(t, total - before)
        self._seen[kernel] = totals
        return self._due


class _CCSeries:
    """One protocol instance's instruments and hold times."""

    __slots__ = ("grants_immediate", "grants_waited", "blocks",
                 "wait_queue", "ceiling_blocked", "wait_time",
                 "hold_time", "withdrawn", "held_since")


class CCProbe:
    """Lock-wait queue length, hold/blocking-time histograms, and
    ceiling-barrier occupancy, per concurrency-control instance
    (labelled by protocol)."""

    __slots__ = ("_registry", "_series", "_cause")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._series: Dict[object, _CCSeries] = {}
        #: request -> blocking cause, for the matching dequeue hook.
        #: Keyed by identity; never iterated, so no ordering leaks.
        self._cause: Dict[object, str] = {}

    def attach_protocol(self, cc) -> None:
        registry = self._registry
        labels = {"protocol": cc.name}
        series = self._series[cc] = _CCSeries()
        series.grants_immediate = registry.counter(
            "cc.grants", "lock grants", {**labels, "waited": "no"})
        series.grants_waited = registry.counter(
            "cc.grants", "lock grants", {**labels, "waited": "yes"})
        series.blocks = {
            cause: registry.counter(
                "cc.blocks", "lock requests blocked",
                {**labels, "cause": cause})
            for cause in (BLOCKING_DIRECT, BLOCKING_CEILING)}
        series.wait_queue = registry.gauge(
            "cc.wait_queue", "requests waiting for locks", labels)
        series.ceiling_blocked = registry.gauge(
            "cc.ceiling_blocked",
            "requests held at the ceiling barrier", labels)
        series.wait_time = registry.histogram(
            "cc.wait_time", "lock blocking time (simulated)", labels)
        series.hold_time = registry.histogram(
            "cc.hold_time", "lock hold time (simulated)", labels)
        series.withdrawn = registry.counter(
            "cc.withdrawn", "waiting requests withdrawn", labels)
        #: (tid, oid) -> grant time; drained on release.  Probe-private
        #: so protocol state carries no telemetry residue.
        series.held_since = {}

    def lock_grant(self, t: float, cc, txn, oid: int, mode,
                   request) -> None:
        series = self._series[cc]
        if request is None:
            series.grants_immediate.inc(t)
        else:
            self._unqueue(t, series, request)
            series.wait_time.observe(t, t - request.since)
            series.grants_waited.inc(t)
        series.held_since.setdefault((txn.tid, oid), t)

    def lock_block(self, t: float, cc, request, cause: str,
                   conflicts) -> None:
        series = self._series[cc]
        series.blocks[cause].inc(t)
        series.wait_queue.inc(t)
        if cause == BLOCKING_CEILING:
            series.ceiling_blocked.inc(t)
        self._cause[request] = cause

    def lock_withdraw(self, t: float, cc, request) -> None:
        series = self._series[cc]
        self._unqueue(t, series, request)
        series.wait_time.observe(t, t - request.since)
        series.withdrawn.inc(t)

    def _unqueue(self, t: float, series: _CCSeries, request) -> None:
        series.wait_queue.dec(t)
        if self._cause.pop(request, None) == BLOCKING_CEILING:
            series.ceiling_blocked.dec(t)

    def lock_release(self, t: float, cc, txn,
                     freed: Iterable[int]) -> None:
        series = self._series[cc]
        held = series.held_since
        tid = txn.tid
        for oid in freed:
            since = held.pop((tid, oid), None)
            if since is not None:
                series.hold_time.observe(t, t - since)


class TxnProbe:
    """Active/committed/reneged transaction population (replica
    appliers are not part of it).  Waits are the lock layer's:
    ``cc.wait_queue`` and ``cc.wait_time``."""

    __slots__ = ("_active", "_committed", "_restarts", "_reneged")

    def __init__(self, registry: "MetricsRegistry"):
        self._active = registry.gauge(
            "txn.active", "transactions between start and completion")
        self._committed = registry.counter(
            "txn.committed", "committed transactions")
        self._restarts = registry.counter(
            "txn.restarts", "deadlock-induced restarts")
        self._reneged = registry.counter(
            "txn.reneged", "transactions that missed their deadline")

    def txn_start(self, t: float, txn, applier: bool = False) -> None:
        if not applier:
            self._active.inc(t)

    def txn_commit(self, t: float, txn, applier: bool = False) -> None:
        if not applier:
            self._active.dec(t)
            self._committed.inc(t)

    def txn_restart(self, t: float, txn) -> None:
        self._restarts.inc(t)

    def txn_miss(self, t: float, txn, reason: str) -> None:
        # An arrival refused at a down site, or orphaned by a crash
        # before its first step, never started.
        if reason == "deadline":
            self._active.dec(t)
            self._reneged.inc(t)


class NetworkProbe:
    """In-flight messages per link, drops, and delivery delay."""

    __slots__ = ("_registry", "_in_flight", "_delay", "_dropped",
                 "_links")

    def __init__(self, registry: "MetricsRegistry"):
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

    def msg_send(self, t: float, dst: int, message, copies: int) -> None:
        if not copies:
            return
        link = f"{message.sender_site}->{dst}"
        counter = self._links.get(link)
        if counter is None:
            counter = self._registry.counter(
                "net.sent", "message copies sent per link",
                {"link": link})
            self._links[link] = counter
        counter.inc(t, copies)
        self._in_flight.inc(t, copies)

    def msg_deliver(self, t: float, dst: int, message,
                    lag: float) -> None:
        self._in_flight.dec(t)
        self._delay.observe(t, lag)

    def msg_drop(self, t: float, dst: int, message, reason: str) -> None:
        """A copy was lost — in flight (site down) or before takeoff
        (the fault injector dropped every copy)."""
        if reason != "injected":
            self._in_flight.dec(t)
        self._dropped.inc(t)


class CommsProbe:
    """Retry/backoff accounting for the reliable-comms layer."""

    __slots__ = ("_timeouts", "_retries", "_stale",
                 "_courier_retries", "_courier_failures")

    def __init__(self, registry: "MetricsRegistry"):
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

    def rpc_timeout(self, t: float) -> None:
        self._timeouts.inc(t)

    def msg_retry(self, t: float, site, dst: int, tid, label) -> None:
        self._retries.inc(t)

    def rpc_stale(self, t: float) -> None:
        self._stale.inc(t)

    def courier_retry(self, t: float, site, dst: int, label) -> None:
        self._courier_retries.inc(t)

    def courier_failure(self, t: float) -> None:
        self._courier_failures.inc(t)


class TwoPCProbe:
    """Per-phase two-phase-commit latency histograms."""

    __slots__ = ("_phases", "_since")

    def __init__(self, registry: "MetricsRegistry"):
        self._phases: Dict[str, Histogram] = {
            phase: registry.histogram(
                "dist.two_pc_phase", "2PC phase latency (simulated)",
                {"phase": phase})
            for phase in ("prepare", "decide")}
        #: txn -> when its current phase began.
        self._since: Dict[object, float] = {}

    def two_pc(self, t: float, txn, phase: str, participants,
               commit=None) -> None:
        """``phase`` names the step that *starts* at ``t`` (prepare,
        decide, done), which ends the one before it."""
        since = self._since
        if phase == "decide":
            self._phases["prepare"].observe(t, t - since[txn])
        elif phase == "done":
            self._phases["decide"].observe(t, t - since.pop(txn))
            return
        since[txn] = t


def probes(registry: "MetricsRegistry") -> tuple:
    """One of each probe over ``registry``: the subscribers that make a
    run metered."""
    return (KernelProbe(registry), CCProbe(registry), TxnProbe(registry),
            NetworkProbe(registry), CommsProbe(registry),
            TwoPCProbe(registry))
