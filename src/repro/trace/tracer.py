"""The central Tracer: the hooks' records in an in-memory ring buffer.

Design contract (property-tested in ``tests/trace``):

- **zero perturbation** — recording draws no randomness, schedules no
  events and mutates no model state; a traced run is bitwise identical
  to an untraced one.
- **bounded memory** — records land in a ring buffer
  (``collections.deque(maxlen=...)``); overflow silently drops the
  *oldest* records and is reported (``emitted`` vs ``len(records)``),
  so a pathological run can never exhaust memory.
- **flat records, typed on read** — the ``lock_block`` / ``msg_drop`` /
  ``two_pc`` style methods below are this subscriber's side of the
  hooks of :mod:`repro.kernel.hooks` (same names, same signatures):
  each appends one ``(t, kind, site, tid, data)`` tuple of plain data
  (the schema of :mod:`repro.trace.events`) and calls nothing else it
  can avoid.  :attr:`Tracer.events` builds the :class:`TraceEvent`
  objects when they are read.

:func:`tracing` subscribes a tracer to the kernels built inside its
block; the exec worker subscribes a fresh one per run unit when
``REPRO_TRACE_DIR`` is set.
"""

from __future__ import annotations

import contextlib
from collections import deque
from typing import Iterable, Iterator, List, Optional

from ..cc.base import BARRIER
from ..db.locks import LockMode
from ..kernel.hooks import observing
from .events import TraceEvent

#: Ring-buffer capacity (records) unless the caller chooses otherwise.
DEFAULT_CAPACITY = 1 << 20

_WRITE = LockMode.WRITE


def _message_tid(message) -> Optional[int]:
    txn = getattr(message, "txn", None)
    if txn is not None:
        return txn.tid
    origin = getattr(message, "origin_tid", None)
    return origin if isinstance(origin, int) and origin >= 0 else None


class Tracer:
    """Collects the trace records of instrumented layers."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: ``(t, kind, site, tid, data)`` tuples, oldest first.
        self.records: deque = deque(maxlen=capacity)
        #: Total records appended (>= len(records) once the ring wraps).
        self.emitted = 0

    @property
    def events(self) -> List[TraceEvent]:
        """The ring buffer as typed events, oldest first."""
        return [TraceEvent(*record) for record in self.records]

    @property
    def dropped(self) -> int:
        """Records lost to ring-buffer overflow."""
        return max(0, self.emitted - len(self.records))

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def txn_start(self, t: float, txn, applier: bool = False) -> None:
        data = {"priority": txn.priority, "deadline": txn.deadline,
                "size": len(txn.operations)}
        if applier:
            data["applier"] = True
        self.emitted += 1
        self.records.append((t, "txn_start", txn.site, txn.tid, data))

    def txn_commit(self, t: float, txn, applier: bool = False) -> None:
        self.emitted += 1
        self.records.append((t, "txn_commit", txn.site, txn.tid,
                             {"restarts": txn.restarts}))

    def txn_miss(self, t: float, txn, reason: str) -> None:
        self.emitted += 1
        self.records.append((t, "txn_miss", txn.site, txn.tid,
                             {"reason": reason}))

    def txn_restart(self, t: float, txn) -> None:
        self.emitted += 1
        self.records.append((t, "txn_restart", txn.site, txn.tid,
                             {"restarts": txn.restarts}))

    def txn_abort(self, t: float, txn, reason: str) -> None:
        self.emitted += 1
        self.records.append((t, "txn_abort", txn.site, txn.tid,
                             {"reason": reason}))

    # ------------------------------------------------------------------
    # locking (``mode`` is written "write" / "read")
    # ------------------------------------------------------------------
    def lock_grant(self, t: float, cc, txn, oid: int, mode,
                   request) -> None:
        self.emitted += 1
        self.records.append((t, "lock_grant", txn.site, txn.tid, {
            "oid": oid, "mode": "write" if mode is _WRITE else "read",
            "waited": request is not None}))

    def lock_block(self, t: float, cc, request, cause: str,
                   conflicts: Iterable) -> None:
        """``cause`` is ``"direct"`` (incompatible holder) or
        ``"ceiling"`` (admission denied with no lock conflict, in which
        case the protocol names the barrier's holders); the blocking
        transactions are snapshotted as ``[tid, base priority]`` so the
        timeline layer can classify priority-inversion intervals
        offline."""
        txn = request.txn
        active = cc.active
        holders = [[tid, float(active[tid].priority)]
                   for tid in conflicts or cc.blocked_by(txn.tid, BARRIER)]
        self.emitted += 1
        self.records.append((t, "lock_block", txn.site, txn.tid, {
            "oid": request.oid,
            "mode": "write" if request.mode is _WRITE else "read",
            "cause": cause, "holders": holders,
            "waiter_priority": float(txn.priority)}))

    def lock_release(self, t: float, cc, txn,
                     freed: Iterable[int]) -> None:
        if freed:
            self.emitted += 1
            self.records.append((t, "lock_release", txn.site, txn.tid,
                                 {"oids": list(freed)}))

    def lock_withdraw(self, t: float, cc, request) -> None:
        txn = request.txn
        self.emitted += 1
        self.records.append((t, "lock_withdraw", txn.site, txn.tid,
                             {"oid": request.oid}))

    # ------------------------------------------------------------------
    # priority management
    # ------------------------------------------------------------------
    def priority_inherit(self, t: float, txn,
                         priority: float) -> None:
        self.emitted += 1
        self.records.append((t, "priority_inherit", txn.site, txn.tid,
                             {"priority": float(priority)}))

    def priority_restore(self, t: float, txn) -> None:
        self.emitted += 1
        self.records.append((t, "priority_restore", txn.site, txn.tid,
                             None))

    def ceiling_raise(self, t: float, cc, txn) -> None:
        self.emitted += 1
        self.records.append((t, "ceiling_raise", txn.site, txn.tid, None))

    def ceiling_lower(self, t: float, cc, txn) -> None:
        self.emitted += 1
        self.records.append((t, "ceiling_lower", txn.site, txn.tid, None))

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def msg_send(self, t: float, dst: int, message,
                 copies: int) -> None:
        self.emitted += 1
        self.records.append((
            t, "msg_send", message.sender_site, _message_tid(message),
            {"dst": dst, "msg": type(message).__name__,
             "target": getattr(message, "target", None),
             "copies": copies}))

    def msg_deliver(self, t: float, dst: int, message,
                    lag: float) -> None:
        self.emitted += 1
        self.records.append((t, "msg_deliver", dst, _message_tid(message),
                             {"msg": type(message).__name__, "lag": lag}))

    def msg_drop(self, t: float, dst: int, message,
                 reason: str) -> None:
        self.emitted += 1
        self.records.append((t, "msg_drop", dst, _message_tid(message),
                             {"msg": type(message).__name__,
                              "reason": reason}))

    def msg_retry(self, t: float, site: Optional[int], dst: int,
                  tid: Optional[int], label: str) -> None:
        self.emitted += 1
        self.records.append((t, "msg_retry", site, tid,
                             {"dst": dst, "label": label}))

    def courier_retry(self, t: float, site: Optional[int], dst: int,
                      label: str) -> None:
        self.emitted += 1
        self.records.append((t, "msg_retry", site, None,
                             {"dst": dst, "label": label}))

    def msg_undeliverable(self, t: float, site: int, message) -> None:
        self.emitted += 1
        self.records.append((
            t, "msg_undeliverable", site, _message_tid(message),
            {"msg": type(message).__name__,
             "target": getattr(message, "target", None)}))

    # ------------------------------------------------------------------
    # request/reply spans and 2PC
    # ------------------------------------------------------------------
    def rpc_begin(self, t: float, site: Optional[int], dst: int,
                  tid: Optional[int], label: str) -> None:
        self.emitted += 1
        self.records.append((t, "rpc_begin", site, tid,
                             {"dst": dst, "label": label}))

    def rpc_end(self, t: float, site: Optional[int], dst: int,
                tid: Optional[int], label: str) -> None:
        self.emitted += 1
        self.records.append((t, "rpc_end", site, tid,
                             {"dst": dst, "label": label}))

    def two_pc(self, t: float, txn, phase: str,
               participants: Iterable[int],
               commit: Optional[bool] = None) -> None:
        data = {"participants": list(participants)}
        if commit is not None:
            data["commit"] = commit
        self.emitted += 1
        self.records.append((t, f"2pc_{phase}", txn.site, txn.tid, data))

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def site_crash(self, t: float, site: int, victims: int) -> None:
        self.emitted += 1
        self.records.append((t, "site_crash", site, None,
                             {"victims": victims}))

    def site_recover(self, t: float, site: int) -> None:
        self.emitted += 1
        self.records.append((t, "site_recover", site, None, None))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tracer(records={len(self.records)}, "
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
