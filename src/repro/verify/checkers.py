"""Invariant checkers evaluated over explored states.

Two layers, mirroring the split in :mod:`repro.analyze`:

- the **runtime sanitizer** rides along inside every explored run (a
  scenario installs a non-strict :class:`~repro.analyze.Sanitizer`, so
  the double-entry protocol checkers of
  :mod:`repro.analyze.invariants` — ceiling admission, blocked-at-most
  -once, 2PL phase rules, replication single-writer — fire exactly as
  they would under ``REPRO_SANITIZE``);
- the checkers here inspect what the sanitizer cannot see from inside
  one hook: cross-transaction *global* conditions (a wait-for cycle, a
  conflict-graph cycle over the whole history, 2PC decisions compared
  across sites, progress of the whole schedule).

All checkers report :class:`repro.analyze.invariants.Violation`
records with ``VFY-`` codes, so explorer reports mix sanitizer and
global findings uniformly.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple, TypeVar

from ..analyze.invariants import Violation
from ..cc.base import CONFLICT, QUEUE

#: Trace kinds that end a transaction incarnation (the next lock grant
#: for the same tid belongs to a fresh attempt).
_INCARNATION_ENDS = frozenset(("txn_restart", "txn_abort"))

Node = TypeVar("Node")


def _cycle(edges: Dict[Node, Set[Node]]) -> List[Node]:
    """First cycle found in ``edges`` (as a node list), or ``[]``."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in edges}
    stack: List[Node] = []

    def visit(node: Node) -> List[Node]:
        colour[node] = GREY
        stack.append(node)
        for succ in sorted(edges.get(node, ()), key=repr):
            state = colour.get(succ, WHITE)
            if state == GREY:
                return stack[stack.index(succ):]
            if state == WHITE:
                found = visit(succ)
                if found:
                    return found
        stack.pop()
        colour[node] = BLACK
        return []

    for node in sorted(edges, key=repr):
        if colour[node] == WHITE:
            found = visit(node)
            if found:
                return found
    return []


# ----------------------------------------------------------------------
# per-state checks (run after every dispatch)
# ----------------------------------------------------------------------
def check_deadlock(instance) -> List[Violation]:
    """Wait-for-graph cycle over each protocol's ``blocked_by``
    conflict and queue edges (a cycle through a ceiling barrier is the
    documented rising-ceiling deviation, DESIGN.md §4b.1).

    PCP guarantees deadlock freedom, and a 2PL variant with a victim
    policy resolves detected cycles *at block time*, so a conflict
    cycle that survives past a dispatch boundary is a protocol bug —
    unless the scenario runs the paper's resolution-free "L", which
    *expects* cycles (deadline misses break them; the scenario sets
    ``expect_deadlocks`` and progress is checked instead).
    """
    if getattr(instance, "expect_deadlocks", False):
        return []
    edges: Dict[int, Set[int]] = {}
    for cc in instance.ccs:
        for request in cc.waiting:
            waiter = request.txn
            process = getattr(waiter, "process", None)
            if process is not None and (
                    process.pending_resume is not None
                    or process.terminated):
                # A wakeup (e.g. the deadlock-victim abort interrupt)
                # is already scheduled: this waiter is leaving the
                # graph, so the cycle is being resolved, not stuck.
                continue
            edges.setdefault(waiter.tid, set()).update(
                cc.blocked_by(waiter.tid, CONFLICT | QUEUE))
    tids = _cycle(edges)
    if not tids:
        return []
    return [Violation(
        code="VFY-DEADLOCK",
        message=f"wait-for cycle among transactions {sorted(tids)}",
        protocol=type(instance.ccs[0]).__name__,
        txn=tids[0], time=instance.kernel.now)]


def run_state_checks(instance) -> List[Violation]:
    """Everything checked at every explored state."""
    return check_deadlock(instance)


# ----------------------------------------------------------------------
# end-of-run checks
# ----------------------------------------------------------------------
def check_progress(instance) -> List[Violation]:
    """Every scheduled transaction must run to completion.

    The event queue has drained (the run ended), so a still-blocked
    transaction manager can never wake again: a lost wakeup or an
    unresolved block — invisible to single-state checks because no
    single state is wrong.
    """
    stuck = instance.unfinished_transactions()
    if not stuck:
        return []
    return [Violation(
        code="VFY-STUCK",
        message=(f"run ended with blocked transaction manager(s) "
                 f"{sorted(stuck)}: lost wakeup or unresolved block"),
        time=instance.kernel.now)]


def _final_incarnation_accesses(events) -> Tuple[
        Dict[int, List[Tuple[object, str, int]]], Set[int]]:
    """Per-tid accesses of the *last* incarnation, plus committed tids.

    A restart or abort invalidates the accesses recorded so far for
    that tid (its locks were released; only the attempt that commits
    contributes to the serialization order).
    """
    accesses: Dict[int, List[Tuple[object, str, int]]] = {}
    committed: Set[int] = set()
    for index, event in enumerate(events):
        tid = event.tid
        if tid is None:
            continue
        if event.kind in _INCARNATION_ENDS:
            accesses.pop(tid, None)
        elif event.kind == "lock_grant":
            data = event.data or {}
            key = (event.site, data.get("oid"))
            accesses.setdefault(tid, []).append(
                (key, data.get("mode", ""), index))
        elif event.kind == "txn_commit":
            committed.add(tid)
    return accesses, committed


def check_serializability(instance) -> List[Violation]:
    """Conflict-graph acyclicity over the committed transactions.

    Both protocol families hold locks to transaction end, so the
    lock-grant order per object *is* the conflict order; a cycle in
    the resulting graph means the committed history has no equivalent
    serial order — the core 2PL/PCP correctness property.
    """
    accesses, committed = _final_incarnation_accesses(
        instance.tracer.events)
    by_object: Dict[object, List[Tuple[int, str, int]]] = {}
    for tid, records in accesses.items():
        if tid not in committed:
            continue
        for key, mode, index in records:
            by_object.setdefault(key, []).append((tid, mode, index))
    edges: Dict[object, Set[object]] = {}
    for records in by_object.values():
        records.sort(key=lambda record: record[2])
        for i, (tid_a, mode_a, __) in enumerate(records):
            for tid_b, mode_b, __ in records[i + 1:]:
                if tid_a == tid_b:
                    continue
                if "write" in (mode_a, mode_b):
                    edges.setdefault(tid_a, set()).add(tid_b)
    cycle = _cycle(edges)
    if not cycle:
        return []
    return [Violation(
        code="VFY-SERIAL",
        message=(f"conflict-graph cycle among committed transactions "
                 f"{sorted(cycle)}: history is not serializable"),
        time=instance.kernel.now)]


def check_agreement(instance) -> List[Violation]:
    """2PC atomicity: one decision per transaction, never both."""
    decisions: Dict[int, Set[bool]] = {}
    for event in instance.tracer.events:
        if event.kind != "2pc_decide" or event.tid is None:
            continue
        commit = (event.data or {}).get("commit")
        if commit is not None:
            decisions.setdefault(event.tid, set()).add(bool(commit))
    violations = []
    for tid, outcomes in sorted(decisions.items()):
        if len(outcomes) > 1:
            violations.append(Violation(
                code="VFY-2PC",
                message=(f"transaction {tid} saw both commit and "
                         f"abort 2PC decisions"),
                txn=tid, time=instance.kernel.now))
    return violations


def check_misses(instance) -> List[Violation]:
    """No deadline miss in a slack-generous scenario.

    The matrix configurations were chosen so the correct protocol
    meets every deadline under *every* interleaving.  A miss is the
    shadow of an otherwise-invisible bug — a lost wakeup looks
    perfectly healthy to every state check because the deadline timer
    aborts the sleeping transaction and the run drains normally.
    Scenarios that expect deadline-broken deadlock cycles (the paper's
    resolution-free 2PL) opt out via ``expect_misses``.
    """
    if getattr(instance, "expect_misses", False):
        return []
    missed = sorted({event.tid for event in instance.tracer.events
                     if event.kind == "txn_miss"
                     and event.tid is not None})
    if not missed:
        return []
    return [Violation(
        code="VFY-MISS",
        message=(f"transaction(s) {missed} missed their deadline in a "
                 f"scenario with slack for every interleaving — "
                 f"likely a lost wakeup or unjustified blocking"),
        txn=missed[0], time=instance.kernel.now)]


def run_final_checks(instance) -> List[Violation]:
    """Everything checked once, after the run drains."""
    violations = check_progress(instance)
    violations.extend(check_serializability(instance))
    violations.extend(check_agreement(instance))
    violations.extend(check_misses(instance))
    return violations
