"""The central Tracer: typed emit API over an in-memory ring buffer.

Design contract (property-tested in ``tests/trace``):

- **zero perturbation** — emitting draws no randomness, schedules no
  events and mutates no model state; a traced run is bitwise identical
  to an untraced one.
- **bounded memory** — events land in a ring buffer
  (``collections.deque(maxlen=...)``); overflow silently drops the
  *oldest* events and is reported (``emitted`` vs ``len(events)``), so
  a pathological run can never exhaust memory.
- **typed records** — the ``lock_block`` / ``msg_drop`` / ``two_pc``
  style methods below are this subscriber's side of the hooks of
  :mod:`repro.kernel.hooks` (same names, same signatures): they
  translate the live objects a hook carries (transactions, messages,
  processes) into the plain-data schema of :mod:`repro.trace.events`.

:func:`tracing` subscribes a tracer to the kernels built inside its
block; the exec worker subscribes a fresh one per run unit when
``REPRO_TRACE_DIR`` is set.
"""

from __future__ import annotations

import contextlib
from collections import deque
from typing import Any, Iterable, Iterator, List, Optional

from ..cc.base import BARRIER
from ..kernel.hooks import observing
from .events import TraceEvent

#: Ring-buffer capacity (events) unless the caller chooses otherwise.
DEFAULT_CAPACITY = 1 << 20


def _txn_tid(txn) -> Optional[int]:
    return getattr(txn, "tid", None)


def _txn_site(txn) -> Optional[int]:
    site = getattr(txn, "site", None)
    return site if isinstance(site, int) else None


def _holder_entry(cc, tid: int) -> List[float]:
    """(tid, base priority) snapshot of a blocking lock holder."""
    return [tid, float(cc.active[tid].priority)]


def _active_ceiling(cc) -> Optional[float]:
    """Highest priority among a ceiling protocol's active transactions:
    the static-ceiling upper bound after a set change."""
    return max((float(txn.priority) for txn in cc.active.values()),
               default=None)


def _message_tid(message) -> Optional[int]:
    txn = getattr(message, "txn", None)
    if txn is not None:
        return _txn_tid(txn)
    origin = getattr(message, "origin_tid", None)
    return origin if isinstance(origin, int) and origin >= 0 else None


class Tracer:
    """Collects :class:`TraceEvent` records from instrumented layers."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: "deque[TraceEvent]" = deque(maxlen=capacity)
        #: Total events emitted (>= len(events) once the ring wraps).
        self.emitted = 0

    # ------------------------------------------------------------------
    # core
    # ------------------------------------------------------------------
    def emit(self, t: float, kind: str, site: Optional[int] = None,
             tid: Optional[int] = None, **data: Any) -> None:
        self.events.append(TraceEvent(t, kind, site, tid, data or None))
        self.emitted += 1

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer overflow."""
        return max(0, self.emitted - len(self.events))

    # ------------------------------------------------------------------
    # kernel layer
    # ------------------------------------------------------------------
    def kernel_event(self, t: float, kind: str, process,
                     detail: Any) -> None:
        """Process lifecycle event (spawn / interrupt / terminate)."""
        payload = getattr(process, "payload", None)
        data = {"process": getattr(process, "name", str(process))}
        if detail is not None:
            data["detail"] = repr(detail)
        self.emit(t, kind, tid=_txn_tid(payload), **data)

    def cpu_dispatch(self, t: float, cpu, process) -> None:
        self.emit(t, "cpu_dispatch",
                  tid=_txn_tid(getattr(process, "payload", None)),
                  cpu=cpu.name, process=getattr(process, "name", ""))

    def cpu_preempt(self, t: float, cpu, process) -> None:
        self.emit(t, "cpu_preempt",
                  tid=_txn_tid(getattr(process, "payload", None)),
                  cpu=cpu.name, process=getattr(process, "name", ""))

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def txn_start(self, t: float, txn, applier: bool = False) -> None:
        data = {"priority": txn.priority, "deadline": txn.deadline,
                "size": len(txn.operations)}
        if applier:
            data["applier"] = True
        self.emit(t, "txn_start", site=_txn_site(txn),
                  tid=_txn_tid(txn), **data)

    def txn_commit(self, t: float, txn, applier: bool = False) -> None:
        self.emit(t, "txn_commit", site=_txn_site(txn),
                  tid=_txn_tid(txn), restarts=txn.restarts)

    def txn_miss(self, t: float, txn, reason: str) -> None:
        self.emit(t, "txn_miss", site=_txn_site(txn),
                  tid=_txn_tid(txn), reason=reason)

    def txn_restart(self, t: float, txn) -> None:
        self.emit(t, "txn_restart", site=_txn_site(txn),
                  tid=_txn_tid(txn), restarts=txn.restarts)

    def txn_abort(self, t: float, txn, reason: str) -> None:
        self.emit(t, "txn_abort", site=_txn_site(txn),
                  tid=_txn_tid(txn), reason=reason)

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    def lock_request(self, t: float, cc, txn, oid: int, mode) -> None:
        self.emit(t, "lock_request", site=_txn_site(txn),
                  tid=_txn_tid(txn), oid=oid, mode=str(mode))

    def lock_grant(self, t: float, cc, txn, oid: int, mode,
                   request) -> None:
        self.emit(t, "lock_grant", site=_txn_site(txn),
                  tid=_txn_tid(txn), oid=oid, mode=str(mode),
                  waited=request is not None)

    def lock_block(self, t: float, cc, request, cause: str,
                   conflicts: Iterable) -> None:
        """``cause`` is ``"direct"`` (incompatible holder) or
        ``"ceiling"`` (admission denied with no lock conflict, in which
        case the protocol names the barrier's holders); the blocking
        transactions are snapshotted as ``[tid, base priority]`` so the
        timeline layer can classify priority-inversion intervals
        offline."""
        txn = request.txn
        holders = conflicts or cc.blocked_by(txn.tid, BARRIER)
        self.emit(t, "lock_block", site=_txn_site(txn),
                  tid=_txn_tid(txn), oid=request.oid,
                  mode=str(request.mode), cause=cause,
                  holders=[_holder_entry(cc, tid) for tid in holders],
                  waiter_priority=float(txn.priority))

    def lock_release(self, t: float, cc, txn,
                     freed: Iterable[int]) -> None:
        if freed:
            self.emit(t, "lock_release", site=_txn_site(txn),
                      tid=_txn_tid(txn), oids=list(freed))

    def lock_withdraw(self, t: float, cc, request) -> None:
        txn = request.txn
        self.emit(t, "lock_withdraw", site=_txn_site(txn),
                  tid=_txn_tid(txn), oid=request.oid)

    # ------------------------------------------------------------------
    # priority management
    # ------------------------------------------------------------------
    def priority_inherit(self, t: float, txn,
                         priority: float) -> None:
        self.emit(t, "priority_inherit", site=_txn_site(txn),
                  tid=_txn_tid(txn), priority=float(priority))

    def priority_restore(self, t: float, txn) -> None:
        self.emit(t, "priority_restore", site=_txn_site(txn),
                  tid=_txn_tid(txn))

    def ceiling_raise(self, t: float, cc, txn) -> None:
        self.emit(t, "ceiling_raise", site=_txn_site(txn),
                  tid=_txn_tid(txn), ceiling=_active_ceiling(cc))

    def ceiling_lower(self, t: float, cc, txn) -> None:
        self.emit(t, "ceiling_lower", site=_txn_site(txn),
                  tid=_txn_tid(txn), ceiling=_active_ceiling(cc))

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def msg_send(self, t: float, dst: int, message,
                 copies: int) -> None:
        self.emit(t, "msg_send", site=message.sender_site,
                  tid=_message_tid(message),
                  dst=dst, msg=type(message).__name__,
                  target=getattr(message, "target", None),
                  copies=copies)

    def msg_deliver(self, t: float, dst: int, message,
                    lag: float) -> None:
        self.emit(t, "msg_deliver", site=dst,
                  tid=_message_tid(message),
                  msg=type(message).__name__, lag=lag)

    def msg_drop(self, t: float, dst: int, message,
                 reason: str) -> None:
        self.emit(t, "msg_drop", site=dst, tid=_message_tid(message),
                  msg=type(message).__name__, reason=reason)

    def msg_retry(self, t: float, site: Optional[int], dst: int,
                  tid: Optional[int], label: str) -> None:
        self.emit(t, "msg_retry", site=site, tid=tid, dst=dst,
                  label=label)

    def courier_retry(self, t: float, site: Optional[int], dst: int,
                      label: str) -> None:
        self.msg_retry(t, site, dst, None, label)

    def msg_undeliverable(self, t: float, site: int, message) -> None:
        self.emit(t, "msg_undeliverable", site=site,
                  tid=_message_tid(message),
                  msg=type(message).__name__,
                  target=getattr(message, "target", None))

    # ------------------------------------------------------------------
    # request/reply spans and 2PC
    # ------------------------------------------------------------------
    def rpc_begin(self, t: float, site: Optional[int], dst: int,
                  tid: Optional[int], label: str) -> None:
        self.emit(t, "rpc_begin", site=site, tid=tid, dst=dst,
                  label=label)

    def rpc_end(self, t: float, site: Optional[int], dst: int,
                tid: Optional[int], label: str) -> None:
        self.emit(t, "rpc_end", site=site, tid=tid, dst=dst,
                  label=label)

    def two_pc(self, t: float, txn, phase: str,
               participants: Iterable[int],
               commit: Optional[bool] = None) -> None:
        data = {"participants": list(participants)}
        if commit is not None:
            data["commit"] = commit
        self.emit(t, f"2pc_{phase}", site=_txn_site(txn),
                  tid=_txn_tid(txn), **data)

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def site_crash(self, t: float, site: int, victims: int) -> None:
        self.emit(t, "site_crash", site=site, victims=victims)

    def site_recover(self, t: float, site: int) -> None:
        self.emit(t, "site_recover", site=site)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tracer(events={len(self.events)}, "
                f"emitted={self.emitted}, dropped={self.dropped})")


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------
@contextlib.contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """``with tracing() as t: ...`` — kernels built inside the block
    report to ``t`` (shadowing an outer tracer, beside anything else
    observing)."""
    active = tracer if tracer is not None else Tracer()
    with observing(active):
        yield active
