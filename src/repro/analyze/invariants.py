"""Protocol invariant checkers — the sanitizer's double-entry books.

Each checker re-derives a protocol's contract from first principles —
its own active-set registry, its own ceiling computation, its own
compatibility rule, its own wait-for graph — and compares against what
the protocol actually did.  It deliberately does **not** call the
protocol's admission helpers (``_can_acquire``, ``_ceiling_barrier``)
or read the indexes behind them (the ceiling protocol's sorted barrier
entries, cached static ceilings and wake-up partition):
if checker and protocol ever disagree, one of them has a bug, which is
exactly the signal we want (the same double-entry argument Brandenburg
makes for mechanically checking locking-protocol invariants,
arXiv:1909.09600).

This module imports nothing from the model packages (``repro.cc``,
``repro.db``, ``repro.txn``): the dependency points one way only.
Protocol objects are duck-typed: a checker needs
``cc.locks`` (holders/locks_of, owners are tids), ``cc.kernel.now``,
``cc.name`` and, for the ceiling checker, ``cc.exclusive_only`` plus
transactions with ``tid``/``priority``/``read_set``/``write_set``/
``access_set``.

Invariant codes reported (see DESIGN.md for the paper references):

- ``SAN-LOCK-RACE``   — two incompatible grants coexist on one object;
- ``SAN-2PL-PHASE``   — a lock granted after the transaction's first
  release (the two-phase property, all 2PL protocols);
- ``SAN-2PL-STRICT``  — a transaction committed while still holding
  locks (strict 2PL releases everything at commit);
- ``SAN-PCP-CEILING`` — a grant admitted a transaction whose priority
  does not exceed the highest rw-ceiling among locks held by others;
- ``SAN-PCP-BLOCK``   — a transaction blocked with neither a ceiling
  barrier nor a direct conflict justifying it;
- ``SAN-PCP-ONCE``    — a transaction ceiling-blocked by lower-priority
  holders more than once within one stable active set;
- ``SAN-PCP-DEADLOCK``— a direct lock-conflict wait cycle under the
  (deadlock-free by construction) priority ceiling protocol; ceiling
  barriers are excluded from the graph because dynamic ceilings can
  dissolve without any cycle member releasing;
- ``SAN-REP-WRITER``  — a secondary site originated an object version
  the primary has never seen (single-writer/multiple-reader, R2).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough context to debug it."""

    code: str
    message: str
    protocol: Optional[str] = None
    txn: Optional[int] = None
    oid: Optional[int] = None
    site: Optional[int] = None
    time: Optional[float] = None

    def __str__(self) -> str:
        context = ", ".join(
            f"{key}={value}"
            for key, value in (("protocol", self.protocol),
                               ("txn", self.txn), ("oid", self.oid),
                               ("site", self.site), ("time", self.time))
            if value is not None)
        suffix = f" [{context}]" if context else ""
        return f"{self.code}: {self.message}{suffix}"

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _is_write(mode: object) -> bool:
    """Duck-typed LockMode test (the enum's value is 'write')."""
    return getattr(mode, "value", mode) == "write"


def _incompatible(held: object, requested: object) -> bool:
    """The checker's own compatibility rule: only read/read coexists."""
    return _is_write(held) or _is_write(requested)


class _WaitForGraph:
    """Waiter -> holders edges with cycle search; rebuilt per check, so
    there is no incremental state to get out of sync."""

    def __init__(self) -> None:
        self._edges: Dict[Any, Set[Any]] = {}

    def add(self, waiter: Any, holders) -> None:
        targets = self._edges.setdefault(waiter, set())
        for holder in holders:
            if holder != waiter:
                targets.add(holder)

    def cycle_through(self, start: Any) -> Optional[List[Any]]:
        path: List[Any] = []
        on_path: Set[Any] = set()
        done: Set[Any] = set()

        def dfs(node: Any) -> Optional[List[Any]]:
            path.append(node)
            on_path.add(node)
            for successor in self._edges.get(node, ()):
                if successor == start:
                    return list(path)
                if successor in on_path or successor in done:
                    continue
                found = dfs(successor)
                if found is not None:
                    return found
            path.pop()
            on_path.discard(node)
            done.add(node)
            return None

        return dfs(start)


class ProtocolChecker:
    """Shared checks for every lock protocol: grant races and the
    two-phase property of strict 2PL (all shipped protocols hold locks
    to commit, including the ceiling protocol)."""

    def __init__(self, sanitizer, cc):
        self.sanitizer = sanitizer
        self.cc = cc
        #: Tids of the transactions that executed their release point
        #: and may not acquire again until they abort/restart or leave.
        self._shrunk: Set[int] = set()

    # -- context helpers -----------------------------------------------
    def _now(self) -> Optional[float]:
        kernel = getattr(self.cc, "kernel", None)
        return None if kernel is None else kernel.now

    def _report(self, code: str, message: str, txn=None,
                oid: Optional[int] = None) -> None:
        self.sanitizer.report(Violation(
            code=code, message=message,
            protocol=getattr(self.cc, "name", None),
            txn=getattr(txn, "tid", None), oid=oid, time=self._now()))

    # -- the protocol's hooks, as the Sanitizer hands them on ------------
    def txn_register(self, txn) -> None:
        pass

    def txn_deregister(self, txn) -> None:
        self._shrunk.discard(txn.tid)

    def lock_block(self, txn, oid: int, mode) -> None:
        pass

    def lock_grant(self, txn, oid: int, mode) -> None:
        if txn.tid in self._shrunk:
            self._report(
                "SAN-2PL-PHASE",
                f"transaction {txn.tid} acquired {mode} on object {oid} "
                f"after its first release — the two-phase property "
                f"('no lock after unlock') is broken",
                txn=txn, oid=oid)
            self._shrunk.discard(txn.tid)  # report once per offence
        self._check_race(oid)

    def lock_release(self, txn, freed) -> None:
        if freed:
            self._shrunk.add(txn.tid)

    def lock_abort(self, txn) -> None:
        # A deadlock victim restarts from scratch: fresh growing phase.
        self._shrunk.discard(txn.tid)

    def lock_commit(self, txn) -> None:
        held = self.cc.locks.locks_of(txn.tid)
        if held:
            self._report(
                "SAN-2PL-STRICT",
                f"transaction {txn.tid} committed while still holding "
                f"locks on {sorted(held)} — strict 2PL releases "
                f"everything at commit",
                txn=txn, oid=min(held))
        self._shrunk.discard(txn.tid)

    # -- shared checks ---------------------------------------------------
    def _check_race(self, oid: int) -> None:
        holders = self.cc.locks.holders(oid)
        if len(holders) < 2:
            return
        modes = list(holders.values())
        for index, held in enumerate(modes):
            for other in modes[index + 1:]:
                if _incompatible(held, other):
                    by_tid = {tid: str(m) for tid, m in holders.items()}
                    self._report(
                        "SAN-LOCK-RACE",
                        f"incompatible grants coexist on object "
                        f"{oid}: {by_tid}",
                        oid=oid)
                    return


class TwoPhaseChecker(ProtocolChecker):
    """Protocols L / P / PI: the shared checks are the whole contract
    (deadlocks are legal there — the protocol detects and resolves
    them itself)."""


class CeilingChecker(ProtocolChecker):
    """Protocol C / Cx: everything TwoPhaseChecker does, plus the
    ceiling admission rule, block justification, blocked-at-most-once
    and deadlock freedom — computed from this checker's own registry of
    declared access sets, not the protocol's."""

    def __init__(self, sanitizer, cc):
        super().__init__(sanitizer, cc)
        #: Independent active-set registry, tid -> transaction (the
        #: protocol keeps its own).
        self._active: Dict[int, Any] = {}
        #: Ceiling-blocking episodes per tid within the current epoch.
        self._episodes: Dict[int, int] = {}

    # -- independent ceiling computation ---------------------------------
    def _declared_write(self, txn) -> frozenset:
        if getattr(self.cc, "exclusive_only", False):
            return txn.access_set
        return txn.write_set

    def _write_ceiling(self, oid: int) -> Optional[float]:
        priorities = [txn.priority for txn in self._active.values()
                      if oid in self._declared_write(txn)]
        return max(priorities) if priorities else None

    def _absolute_ceiling(self, oid: int) -> Optional[float]:
        priorities = [txn.priority for txn in self._active.values()
                      if oid in txn.access_set]
        return max(priorities) if priorities else None

    def _rw_ceiling(self, oid: int) -> Optional[float]:
        holders = self.cc.locks.holders(oid)
        if any(_is_write(mode) for mode in holders.values()):
            return self._absolute_ceiling(oid)
        return self._write_ceiling(oid)

    def _barrier(self, txn):
        """(ceiling, oid, holder tids) of the highest rw-ceiling among
        objects locked by transactions other than ``txn``."""
        tid = txn.tid
        best = best_oid = None
        for oid in list(self.cc.locks.locked_oids()):
            holders = self.cc.locks.holders(oid)
            if not any(holder != tid for holder in holders):
                continue
            ceiling = self._rw_ceiling(oid)
            if ceiling is None:
                continue
            if best is None or ceiling > best:
                best, best_oid = ceiling, oid
        if best_oid is None:
            return None, None, []
        blocking = [holder
                    for holder in self.cc.locks.holders(best_oid)
                    if holder != tid]
        return best, best_oid, blocking

    def _conflicters(self, txn, oid: int, mode) -> List[int]:
        return [holder
                for holder, held in self.cc.locks.holders(oid).items()
                if holder != txn.tid and _incompatible(held, mode)]

    # -- the protocol's hooks ---------------------------------------------
    def txn_register(self, txn) -> None:
        self._active[txn.tid] = txn
        # The active set changed, so the static ceilings changed: the
        # blocked-at-most-once bound is only claimed within one epoch.
        self._episodes.clear()

    def txn_deregister(self, txn) -> None:
        super().txn_deregister(txn)
        self._active.pop(txn.tid, None)
        self._episodes.clear()

    def lock_grant(self, txn, oid: int, mode) -> None:
        super().lock_grant(txn, oid, mode)
        barrier, barrier_oid, __ = self._barrier(txn)
        if barrier is not None and txn.priority <= barrier:
            self._report(
                "SAN-PCP-CEILING",
                f"grant of {mode} on object {oid} to transaction "
                f"{txn.tid} (priority {txn.priority:g}) violates the "
                f"ceiling rule: object {barrier_oid} locked by others "
                f"carries rw-ceiling {barrier:g} >= its priority",
                txn=txn, oid=oid)

    def lock_block(self, txn, oid: int, mode) -> None:
        barrier, barrier_oid, blocking = self._barrier(txn)
        conflicters = self._conflicters(txn, oid, mode)
        ceiling_blocked = barrier is not None and txn.priority <= barrier
        if not ceiling_blocked and not conflicters:
            self._report(
                "SAN-PCP-BLOCK",
                f"transaction {txn.tid} (priority {txn.priority:g}) was "
                f"blocked on object {oid} with no ceiling barrier and "
                f"no conflicting holder — spurious blocking",
                txn=txn, oid=oid)
            return
        blockers = blocking if ceiling_blocked else conflicters
        active = self._active
        if blockers and all(active[holder].priority < txn.priority
                            for holder in blockers):
            count = self._episodes.get(txn.tid, 0) + 1
            self._episodes[txn.tid] = count
            if count > 1:
                self._report(
                    "SAN-PCP-ONCE",
                    f"transaction {txn.tid} was blocked by "
                    f"lower-priority holders {sorted(blockers)} "
                    f"(episode {count}) within one stable active set "
                    f"— PCP bounds blocking to one critical section",
                    txn=txn, oid=oid)
        self._check_deadlock(txn)

    # -- deadlock freedom ------------------------------------------------
    def _check_deadlock(self, txn) -> None:
        # Edges are *direct lock conflicts* only.  Ceiling-barrier
        # blocking is deliberately excluded: under this codebase's
        # open-arrival adaptation the ceilings are dynamic, so a
        # barrier can dissolve when an unrelated transaction
        # deregisters — a "cycle" through a barrier edge is not a
        # permanent wait.  Direct-conflict cycles, by contrast, are
        # provably impossible under the ceiling admission test (each
        # later acquirer would have been blocked by the ceiling its
        # own declared access contributes), so one appearing is
        # always an implementation bug.
        graph = _WaitForGraph()
        for request in list(getattr(self.cc, "waiting", ())):
            waiter = request.txn
            graph.add(waiter.tid, self._conflicters(waiter, request.oid,
                                                    request.mode))
        cycle = graph.cycle_through(txn.tid)
        if cycle is not None:
            self._report(
                "SAN-PCP-DEADLOCK",
                f"wait-for cycle {cycle} under the "
                f"priority ceiling protocol, which is deadlock-free by "
                f"construction",
                txn=txn)


def check_replica_write(catalog, site: int, oid: int,
                        timestamp: float) -> Optional[Violation]:
    """The replicated architecture's single-writer invariant (R2),
    checked as ``site`` is about to record version ``timestamp`` of
    ``oid`` (so against the *pre-update* primary copy).

    Every version of an object is born at its primary site; secondary
    copies only ever install versions the primary already carries.  A
    write at a non-primary site with a timestamp newer than the
    primary's copy means a secondary originated data — the
    single-writer/multiple-reader restriction is broken.
    """
    primary = catalog.primary_site(oid)
    if site == primary:
        return None
    primary_ts = catalog.copy_timestamp(primary, oid)
    if timestamp <= primary_ts:
        return None
    return Violation(
        code="SAN-REP-WRITER",
        message=(f"site {site} recorded version {timestamp:g} of "
                 f"object {oid}, newer than its primary copy at site "
                 f"{primary} ({primary_ts:g}) — a secondary originated "
                 f"an update (single-writer restriction R2)"),
        oid=oid, site=site, time=timestamp)
