"""Concurrency-control protocol interface.

Every protocol (2PL, 2PL-priority, priority inheritance, priority
ceiling) shares this skeleton:

- :meth:`acquire` returns a syscall the transaction manager yields;
  applied by the kernel it runs :meth:`attempt`, which grants
  immediately or parks the requester in the protocol's wait set (a
  lock-manager server calls :meth:`attempt` itself, with a grant
  callback);
- :meth:`release_all` frees a committing transaction's locks and
  re-evaluates waiters;
- :meth:`abort` cleans up a transaction that died mid-flight (deadline
  miss or deadlock victim) — its pending request was already withdrawn
  by the kernel's interrupt machinery, so only held locks remain;
- :meth:`register`/:meth:`deregister` bracket a transaction's *active*
  interval (the ceiling protocol computes per-object ceilings from the
  declared access sets of registered transactions).  A transaction
  locks only while registered: the lock table's owners are tids, and
  :attr:`ConcurrencyControl.active` maps them back.

Subclasses implement ``_can_acquire`` (the admission test),
``_grant_order`` (which waiters to reconsider, in what order) and
``_after_change`` (inheritance bookkeeping, deadlock detection).
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set

from ..constants import BLOCKING_CEILING, BLOCKING_DIRECT
from ..db.locks import LockError, LockMode, LockTable
from ..kernel.kernel import Kernel
from ..kernel.process import Process, ProcessState
from ..kernel.syscalls import BLOCKED, DONE, SysCall
from ..txn.transaction import Transaction

_WRITE = LockMode.WRITE
_RUNNING = ProcessState.RUNNING
_TERMINATED = ProcessState.TERMINATED

#: Edge kinds of :meth:`ConcurrencyControl.blocked_by` (combine with |).
CONFLICT = 1
QUEUE = 2
BARRIER = 4


class CCStats:
    """Counters every protocol maintains, for the Performance Monitor.

    ``KEYS`` is the *stable, documented* counter surface: summary rows
    emit exactly these names prefixed ``cc_`` (``cc_requests``,
    ``cc_ceiling_blocks``, ...), in this order, for every protocol.
    The full summary key set is pinned by the golden-file test
    ``tests/core/test_summary_keys.py`` — extend KEYS there too.
    """

    KEYS = (
        "requests",            # lock requests issued
        "immediate_grants",    # granted without waiting
        "blocks",              # requests that had to wait
        "ceiling_blocks",      # blocked with no direct lock conflict
        "direct_blocks",       # blocked on an incompatible holder
        "deadlocks",           # deadlock cycles detected (2PL family)
        "inheritance_events",  # effective-priority raises applied
    )

    def __init__(self) -> None:
        for name in self.KEYS:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.KEYS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}={getattr(self, name)}"
                          for name in self.KEYS)
        return f"CCStats({parts})"


class Request:
    """A waiting lock request.  No ``__init__``:
    :meth:`ConcurrencyControl.attempt`, the one constructing site,
    stores every slot (a frame per block otherwise).  Two delivery
    styles:

    - *blocking* (``on_grant is None``): the requesting process yielded
      the acquire syscall and is parked; the grant resumes it;
    - *callback* (``on_grant`` set): a lock-manager server (the global
      ceiling manager) asked on a remote transaction's behalf; the
      grant invokes the callback instead — the requester is blocked
      elsewhere, waiting for the grant *message*.
    """

    __slots__ = ("txn", "oid", "mode", "process", "seq", "since",
                 "on_grant")

    def waiter_priority(self) -> float:
        """Effective priority of the waiter (for inheritance), inlined."""
        process = self.process
        if process is not None and process.state is not _TERMINATED:
            held = process.inherited_priority
            base = process.base_priority
            return held if held is not None and held > base else base
        return self.txn.priority

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Request(txn={self.txn.tid}, oid={self.oid}, "
                f"mode={self.mode})")


#: Sort keys over waiting requests: enqueue order, and priority order
#: with enqueue order breaking ties.
by_seq = attrgetter("seq")


def by_priority_then_seq(request: Request):
    return (-request.txn.priority, request.seq)


class _RequestBlocker:
    """Kernel blocker protocol adapter for a waiting lock request
    (slots stored by :meth:`ConcurrencyControl.attempt`)."""

    __slots__ = ("cc", "request")

    def withdraw(self, process: Process) -> None:
        self.cc._withdraw(self.request)


class Acquire(SysCall):
    """A blocking lock request, and the syscall to apply once it is
    granted (or None); build via :meth:`ConcurrencyControl.acquire`."""

    __slots__ = ("cc", "txn", "oid", "mode", "then")

    def apply(self, kernel: Kernel, process: Process):
        outcome = self.cc.attempt(kernel, process, self.txn, self.oid,
                                  self.mode)
        then = self.then
        if then is None or outcome is BLOCKED:
            return outcome
        # Granted at once: start ``then`` in this same syscall.
        return then.apply(kernel, process)

    @property
    def label(self) -> str:
        return f"lock({self.oid},{self.mode})"


class ConcurrencyControl:
    """Abstract base; see module docstring."""

    #: Human-readable protocol tag ("L", "P", "PI", "C", ...).
    name = "base"
    #: CPU discipline this protocol is designed for.
    cpu_policy = "priority"
    #: Every lock is taken in WRITE mode (protocol Cx, the §5 ablation).
    exclusive_only = False

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        #: Lock owners are tids (an int key hashes without a
        #: Python-level call); this maps the registered ones back to
        #: their transactions.
        self.active: Dict[int, Transaction] = {}
        self.locks = LockTable()
        self.waiting: List[Request] = []
        #: oid -> waiting requests on that object, in enqueue order —
        #: the per-object lock queue (same relative order as
        #: ``waiting``).  Maintained by _enqueue/_dequeue only.
        self._waiting_by_oid: dict = {}
        #: tid -> that transaction's waiting requests, in enqueue order
        #: (one entry except for callback requests in flight together).
        #: Keyed by tid: an int key hashes without a Python-level call.
        self._waiting_by_tid: dict = {}
        self.stats = CCStats()
        self._seq = itertools.count()
        #: tids of the transactions currently carrying inherited
        #: priority from us, and tid -> transaction for exactly those.
        #: A *set* of tids, not a dict: the restore loop of
        #: _apply_inheritance iterates it, and a set of ints iterates
        #: as the set of transactions it replaces did (``hash(txn)`` is
        #: ``txn.tid``) — that order reaches set_inherited_priority.
        self._inheriting: Set[int] = set()
        self._inheriting_txn: Dict[int, Transaction] = {}
        hooks = kernel.hooks
        if hooks is not None:
            hooks.attach_protocol(self)

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def register(self, txn: Transaction) -> None:
        """The transaction becomes active (started, not completed)."""
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.txn_register(self.kernel.now, self, txn)
        self.active[txn.tid] = txn

    def deregister(self, txn: Transaction) -> None:
        """The transaction left the system (committed or missed)."""
        if txn.tid in self.active:
            del self.active[txn.tid]
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.txn_deregister(self.kernel.now, self, txn)
        self._reevaluate()

    # ------------------------------------------------------------------
    # the lock API used by transaction managers
    # ------------------------------------------------------------------
    def acquire(self, txn: Transaction, oid: int, mode: LockMode,
                then: Optional[SysCall] = None) -> "Acquire":
        """Syscall: obtain ``mode`` on ``oid``, blocking per protocol.

        With ``then`` (the access the lock guards), an immediate grant
        applies ``then`` inside the same syscall, so the requester
        resumes only when that completes, with None; a grant after a
        wait resumes it with True, and ``then`` is its to yield.
        """
        call = Acquire()
        call.cc = self
        call.txn = txn
        call.oid = oid
        call.mode = mode
        call.then = then
        return call

    def attempt(self, kernel: Kernel, process: Process, txn: Transaction,
                oid: int, mode: LockMode, on_grant=None):
        """The one request body: grant now (``DONE``) or queue the
        request in the wait set (``BLOCKED``).

        Without ``on_grant`` this is the kernel-context body of
        :meth:`acquire`, and a blocked ``process`` is parked until the
        grant.  A lock-manager server passes ``on_grant`` instead: a
        queued request calls it when granted, and ``process`` (the
        remote transaction's) only feeds priority inheritance.  No
        protocol that aborts deadlock victims serves such requests: the
        victim machinery assumes a parked requester.
        """
        if self.exclusive_only:
            mode = _WRITE
        self.stats.requests += 1
        hooks = kernel.hooks
        tid = txn.tid
        if tid not in self.active:
            raise LockError(f"transaction {tid} must be registered "
                            f"before acquiring locks under {self.name}")
        if self._can_acquire(txn, oid, mode):
            self.locks.grant(oid, tid, mode)
            self.stats.immediate_grants += 1
            if hooks is not None:
                hooks.lock_grant(kernel.now, self, txn, oid, mode, None)
            return DONE
        self.stats.blocks += 1
        conflicts = self.locks.conflicting_holders(oid, tid, mode)
        if conflicts:
            self.stats.direct_blocks += 1
            cause = BLOCKING_DIRECT
        else:
            self.stats.ceiling_blocks += 1
            cause = BLOCKING_CEILING
        request = Request()
        request.txn = txn
        request.oid = oid
        request.mode = mode
        request.process = process
        request.seq = next(self._seq)
        request.since = kernel.now
        request.on_grant = on_grant
        self._enqueue(request)
        if on_grant is None:
            process.blocker = blocker = _RequestBlocker()
            blocker.cc = self
            blocker.request = request
        if hooks is not None:
            hooks.lock_block(kernel.now, self, request, cause, conflicts)
        # _on_block may raise a TransactionAbort into the requester
        # (deadlock victim); it must leave protocol state clean if so.
        self._on_block(request)
        self._after_change()
        if on_grant is None and process.blocker is None:
            # _on_block aborted another victim, and its leaving the
            # queue admitted this very request (see _grant_waiter).
            return DONE
        return BLOCKED

    def is_waiting(self, txn: Transaction, oid: int) -> bool:
        """Whether ``txn`` has a request for ``oid`` in the wait set."""
        return any(request.oid == oid
                   for request in self._waiting_by_tid.get(txn.tid, ()))

    def cancel_async(self, txn: Transaction) -> int:
        """Withdraw every queued callback request of ``txn`` (abort
        path).

        Returns the number removed."""
        if txn.tid not in self._waiting_by_tid:
            return 0
        stale = [request for request in self._waiting_by_tid[txn.tid]
                 if request.on_grant is not None]
        hooks = self.kernel.hooks
        for request in stale:
            self._dequeue(request)
            if hooks is not None:
                hooks.lock_withdraw(self.kernel.now, self, request)
        if stale:
            self._reevaluate()
        return len(stale)

    def release_all(self, txn: Transaction) -> List[int]:
        """Free every lock ``txn`` holds; wake newly grantable waiters."""
        freed = self.locks.release_all(txn.tid)
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.lock_release(self.kernel.now, self, txn, freed)
        if freed or txn.tid in self._inheriting:
            self._reevaluate()
        return freed

    def abort(self, txn: Transaction) -> None:
        """Clean up an aborted transaction's lock state.

        Its waiting request (if any) was withdrawn by the kernel when
        the interrupt was delivered; only held locks remain here.
        """
        self.release_all(txn)
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.lock_abort(self.kernel.now, self, txn)

    # ------------------------------------------------------------------
    # protocol extension points
    # ------------------------------------------------------------------
    def _can_acquire(self, txn: Transaction, oid: int,
                     mode: LockMode) -> bool:
        raise NotImplementedError

    def _on_block(self, request: Request) -> None:
        """Called after ``request`` was parked (inheritance, deadlock
        detection).  Default: nothing."""

    def blocked_by(self, tid: int,
                   kinds: int = CONFLICT | QUEUE) -> Iterable[int]:
        """The tids of the transactions that transaction ``tid``'s
        waiting requests wait for, over the edge ``kinds``:
        ``CONFLICT`` (incompatible holders), ``QUEUE`` (2PL waiters
        queued ahead) and ``BARRIER`` (holders of PCP's
        highest-rw-ceiling lock).  Each reader names its kinds:

        - 2PL detection, the default: a cycle can close through a
          fairness wait;
        - PI/FMLP inheritance, ``CONFLICT``: a holder inherits from the
          waiters it blocks, never from a queue neighbour;
        - PCP inheritance, and the tracer on a conflict-free block,
          ``BARRIER``: the holders the ceiling rule blocks on;
        - ``VFY-DEADLOCK``, ``CONFLICT | QUEUE``: a barrier cycle is the
          rising-ceiling deviation (DESIGN.md §4b.1), not a bug.

        Here a list of conflicting holders, in request then holder
        order: the order inheritance re-prioritises them in.
        """
        holders: List[int] = []
        if kinds & CONFLICT:
            conflicting_holders = self.locks.conflicting_holders
            for request in self._waiting_by_tid.get(tid, ()):
                holders += conflicting_holders(request.oid, tid,
                                               request.mode)
        return holders

    def _grant_order(self) -> Iterable[Request]:
        """Waiters in the order they should be reconsidered."""
        raise NotImplementedError

    def _after_change(self) -> None:
        """Called whenever lock state or the wait set changed, after all
        grants were issued (inheritance recomputation hook)."""

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def _reevaluate(self) -> None:
        """Grant every waiter that is now admissible, then let the
        protocol update inheritance."""
        progress = True
        while progress:
            progress = False
            for request in list(self._grant_order()):
                if self._can_acquire(request.txn, request.oid,
                                     request.mode):
                    self._grant_waiter(request)
                    progress = True
                    break  # state changed: recompute the order
        self._after_change()

    def _grant_waiter(self, request: Request) -> None:
        self.locks.grant(request.oid, request.txn.tid, request.mode)
        self._dequeue(request)
        hooks = self.kernel.hooks
        if hooks is not None:
            hooks.lock_grant(self.kernel.now, self, request.txn,
                             request.oid, request.mode, request)
        process = request.process
        if request.on_grant is not None:
            request.on_grant()
        elif process.state is _RUNNING:
            # Granted from inside the requester's own attempt(): it
            # never parked, so there is nothing to make ready.
            process.blocker = None
        else:
            # True tells the requester its grant came late (see
            # ``acquire``).
            self.kernel.ready(process, True)

    def _withdraw(self, request: Request) -> None:
        """Interrupt cleanup: the waiter leaves the wait set."""
        if request in self._waiting_by_oid.get(request.oid, ()):
            self._dequeue(request)
            hooks = self.kernel.hooks
            if hooks is not None:
                hooks.lock_withdraw(self.kernel.now, self, request)
        self._reevaluate()

    def _enqueue(self, request: Request) -> None:
        self.waiting.append(request)
        self._waiting_by_oid.setdefault(request.oid, []).append(request)
        # Nothing below is a call when this is the transaction's only
        # request: the index must not add a frame to any protocol's
        # block path.
        by_tid = self._waiting_by_tid
        tid = request.txn.tid
        if tid in by_tid:
            by_tid[tid].append(request)
        else:
            by_tid[tid] = [request]

    def _dequeue(self, request: Request) -> None:
        self.waiting.remove(request)
        queue = self._waiting_by_oid[request.oid]
        queue.remove(request)
        if not queue:
            del self._waiting_by_oid[request.oid]
        tid = request.txn.tid
        own = self._waiting_by_tid[tid]
        if own == [request]:
            del self._waiting_by_tid[tid]
        else:
            own.remove(request)

    # ------------------------------------------------------------------
    # inheritance plumbing shared by PI and ceiling protocols
    # ------------------------------------------------------------------
    def _apply_inheritance(self, contributions: Dict[int, float]) -> bool:
        """Set inherited priorities from {tid: priority}, each tid a
        lock holder's, hence registered.

        Transactions that previously inherited but no longer appear are
        cleared.  ``contributions`` values are effective priorities of
        the waiters each holder blocks.  The kernel is only told of a
        priority that differs from the one the process carries.
        Returns True if it re-prioritised a transaction waiting here: the
        one change the fixpoints' next pass can read (DESIGN.md §9).
        """
        changed = False
        kernel = self.kernel
        hooks = kernel.hooks
        inheriting = self._inheriting
        inheriting_txn = self._inheriting_txn
        active = self.active
        for tid in list(inheriting):
            if tid not in contributions:
                inheriting.discard(tid)
                txn = inheriting_txn.pop(tid)
                process = txn.process
                if (process is not None
                        and process.state is not _TERMINATED
                        and process.inherited_priority is not None):
                    changed = changed or tid in self._waiting_by_tid
                    if hooks is not None:
                        hooks.priority_restore(kernel.now, txn)
                    kernel.set_inherited_priority(process, None)
        for tid, priority in contributions.items():
            txn = active[tid]
            process = txn.process
            if process is None or process.state is _TERMINATED:
                continue
            if process.inherited_priority != priority:
                self.stats.inheritance_events += 1
                changed = changed or tid in self._waiting_by_tid
                if hooks is not None:
                    hooks.priority_inherit(kernel.now, txn, priority)
                kernel.set_inherited_priority(process, priority)
            if tid not in inheriting:
                inheriting.add(tid)
                inheriting_txn[tid] = txn
        return changed

    # ------------------------------------------------------------------
    # introspection used by tests and the monitor
    # ------------------------------------------------------------------
    @property
    def waiting_count(self) -> int:
        return len(self.waiting)

    def waiting_txns(self) -> List[Transaction]:
        return [request.txn for request in self.waiting]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(waiting={self.waiting_count}, "
                f"locks={len(self.locks)})")
