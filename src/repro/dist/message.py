"""Typed inter-site messages.

All messages travel site-to-site through the :class:`Network` into the
destination's Message Server, which dispatches on ``target`` — the name
of a service port registered at that site ("the Message Server ...
forwards the message to the proper servers or TM").  Replies are routed
the same way: a requester registers a private reply port and names it in
``reply_to``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Tuple

from ..db.locks import LockMode

#: (site, service-name) address of a port registered at a site.
Address = Tuple[int, str]


@dataclasses.dataclass(frozen=True)
class Message:
    """Envelope: ``target`` names the destination service port."""

    target: str
    sender_site: int


# ----------------------------------------------------------------------
# ceiling-manager traffic (global approach)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RegisterTxn(Message):
    """Declare a transaction active (its access sets feed the ceilings)."""
    txn: Any = None
    reply_to: Optional[Address] = None

    ack_tag = "registered"


@dataclasses.dataclass(frozen=True)
class LockRequest(Message):
    txn: Any = None
    oid: int = -1
    mode: LockMode = LockMode.READ
    reply_to: Optional[Address] = None
    #: True when the requester's transport times out on silence and
    #: wants a LockQueued acknowledgement if the lock blocks (so it can
    #: tell "request lost" apart from "ceiling-blocked").  Other
    #: requesters wait for the grant alone.
    queued_ack: bool = False


@dataclasses.dataclass(frozen=True)
class LockGrant(Message):
    oid: int = -1


@dataclasses.dataclass(frozen=True)
class LockQueued(Message):
    """The manager accepted the request but the lock is blocked; the
    grant will follow unsolicited.  Only sent to ``queued_ack``
    requesters."""
    oid: int = -1


@dataclasses.dataclass(frozen=True)
class ReleaseAndDeregister(Message):
    """Commit-path cleanup: release all locks and leave the active set.

    ``reply_to``, when set, asks the manager to acknowledge (a
    transport that must confirm delivery sets it).
    """
    txn: Any = None
    reply_to: Optional[Address] = None

    @property
    def ack_tag(self) -> str:
        return f"released-{self.txn.tid}"


@dataclasses.dataclass(frozen=True)
class AbortTxn(Message):
    """Deadline-miss cleanup: cancel waits, release locks, deregister.

    ``reply_to`` as on :class:`ReleaseAndDeregister`.
    """
    txn: Any = None
    reply_to: Optional[Address] = None

    @property
    def ack_tag(self) -> str:
        return f"aborted-{self.txn.tid}"


@dataclasses.dataclass(frozen=True)
class Ack(Message):
    tag: str = ""


# ----------------------------------------------------------------------
# remote data access (global approach: partitioned data)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class DataRequest(Message):
    """Perform one read/write at the object's home site on behalf of a
    transaction; the home site charges its CPU at the txn's priority."""
    txn: Any = None
    oid: int = -1
    mode: LockMode = LockMode.READ
    reply_to: Optional[Address] = None


@dataclasses.dataclass(frozen=True)
class DataReply(Message):
    oid: int = -1
    value: float = 0.0


# ----------------------------------------------------------------------
# two-phase commit (global approach)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Prepare(Message):
    txn: Any = None
    oids: Tuple[int, ...] = ()
    reply_to: Optional[Address] = None


@dataclasses.dataclass(frozen=True)
class Vote(Message):
    txn_tid: int = -1
    commit: bool = True


@dataclasses.dataclass(frozen=True)
class Decide(Message):
    txn: Any = None
    commit: bool = True
    oids: Tuple[int, ...] = ()
    reply_to: Optional[Address] = None

    @property
    def ack_tag(self) -> str:
        return f"decided-{self.txn.tid}"


# ----------------------------------------------------------------------
# replica propagation (local approach)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ReplicaUpdate(Message):
    """Asynchronous post-commit update of a secondary copy (R3).

    ``origin_tid`` identifies the committing transaction (or -1 for a
    recovery resync), so appliers can deduplicate repeated deliveries;
    ``reply_to``, when set, requests an applied-ack.
    """
    oid: int = -1
    value: float = 0.0
    timestamp: float = 0.0
    origin_priority: float = 0.0
    origin_tid: int = -1
    reply_to: Optional[Address] = None

    @property
    def ack_tag(self) -> str:
        return f"applied-{self.oid}"
