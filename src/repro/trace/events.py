"""Typed trace event records.

A :class:`TraceEvent` is plain data — no kernel, protocol or process
references survive in it, so the trace package sits *below* every model
layer in the import graph (the kernel and the protocols import us, not
the other way round) and an exported event stream is self-contained.

Every event carries:

- ``t``    — virtual time of the event;
- ``kind`` — one of the :data:`EVENT_KINDS` taxonomy below;
- ``site`` — originating site id, or None for single-site runs and
  system-wide events;
- ``tid``  — the transaction the event belongs to, or None for
  infrastructure events (message servers, couriers, crash timers);
- ``data`` — kind-specific payload (lock object id, blocking cause,
  message type, 2PC phase, ...), JSON-encodable by construction.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: kind -> one-line description.  This table is the documented event
#: schema: the README renders it, the exporters stamp events against
#: it, and tests assert every emitted kind is registered here.
EVENT_KINDS: Dict[str, str] = {
    # kernel process lifecycle (the hardened legacy `trace` hook)
    "spawn": "process created and scheduled",
    "interrupt": "interrupt delivered to a process",
    "terminate": "process terminated (detail: unhandled interrupt)",
    # CPU scheduling
    "cpu_dispatch": "a burst starts (or resumes) on a CPU",
    "cpu_preempt": "the running burst is preempted",
    # transaction lifecycle
    "txn_start": "transaction manager started executing",
    "txn_commit": "transaction committed",
    "txn_miss": "transaction missed its deadline (or was rejected)",
    "txn_restart": "deadlock victim restarted from scratch",
    "txn_abort": "non-deadline abort (e.g. applier killed by a crash)",
    # locking, with blocking-cause classification
    "lock_request": "lock requested from the protocol",
    "lock_grant": "lock granted (immediately or after a wait)",
    "lock_block": "request blocked; cause is 'direct' or 'ceiling'",
    "lock_release": "all locks of a transaction released",
    "lock_withdraw": "waiting request withdrawn (abort/interrupt)",
    # priority management
    "priority_inherit": "a holder inherited a waiter's priority",
    "priority_restore": "inherited priority cleared",
    "ceiling_raise": "registration raised the active ceiling set",
    "ceiling_lower": "deregistration lowered the active ceiling set",
    # messaging
    "msg_send": "message handed to the network",
    "msg_deliver": "message delivered into a site inbox",
    "msg_drop": "message lost (injector or down site)",
    "msg_retry": "request re-sent after a timeout",
    "msg_undeliverable": "message server had no target service",
    # request/reply spans
    "rpc_begin": "request/reply exchange started",
    "rpc_end": "request/reply exchange completed",
    # two-phase commit
    "2pc_prepare": "coordinator sent Prepare to participants",
    "2pc_decide": "coordinator decided (data: commit true/false)",
    "2pc_done": "all participant acks collected",
    # faults
    "site_crash": "site failed (fail-stop)",
    "site_recover": "site rejoined the network",
}


class TraceEvent:
    """One structured event; see module docstring for the fields."""

    __slots__ = ("t", "kind", "site", "tid", "data")

    def __init__(self, t: float, kind: str, site: Optional[int] = None,
                 tid: Optional[int] = None,
                 data: Optional[Dict[str, Any]] = None):
        self.t = t
        self.kind = kind
        self.site = site
        self.tid = tid
        self.data = data

    # ------------------------------------------------------------------
    # (de)serialisation — the JSONL exporter round-trips through these
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"t": self.t, "kind": self.kind}
        if self.site is not None:
            record["site"] = self.site
        if self.tid is not None:
            record["tid"] = self.tid
        if self.data:
            record["data"] = self.data
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        return cls(record["t"], record["kind"], record.get("site"),
                   record.get("tid"), record.get("data"))

    # ------------------------------------------------------------------
    def _key(self):
        return (self.t, self.kind, self.site, self.tid, self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = "".join(
            f" {name}={value!r}"
            for name, value in (("site", self.site), ("tid", self.tid),
                                ("data", self.data))
            if value is not None)
        return f"TraceEvent(t={self.t}, kind={self.kind!r}{extra})"
