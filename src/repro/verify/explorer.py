"""The bounded DFS schedule explorer (stateless-replay model checking).

The explorer never forks or snapshots a live system: each explored
schedule is a **fresh build + deterministic replay** of a decision
prefix.  A :class:`ReplayChooser` follows the prefix choice-by-choice
and defaults to alternative 0 (the uncontrolled kernel's tie-break)
beyond it; the run records every choice point it passes, and each
newly discovered choice point contributes its unexplored alternatives
as new prefixes on the DFS stack.  Exhausting the stack therefore
exhausts every interleaving reachable within the depth budget.

Reductions (``--reduction``):

- ``none``  — ground truth: every prefix is replayed in full.
- ``hash``  — convergence pruning: at each *novel* choice point the
  state digest (protocol snapshot + canonical pending-event signature,
  sequence numbers excluded) is recorded; reaching an already-digested
  state aborts the replay, because the subtree below that state has
  been (or is queued to be) explored from its first visit.
- ``sleep`` — ``hash`` plus an independence test in the spirit of
  sleep sets: an unexplored alternative is skipped when its effect
  footprint (the set of snapshot keys its dispatch changed later in
  the same run) is disjoint from the chosen event's footprint — the
  two dispatches commute, so the permuted schedule reaches a digest
  the hash layer would prune anyway.  Footprints are observed from
  one execution context, so this is an *approximation*: DESIGN.md §11
  gives the soundness argument and its limits, ``--reduction none``
  is always available as the oracle, and the test suite asserts
  reduced and naive exploration find identical violation sets on the
  shipped scenario matrix.

Runs are bounded by ``max_depth`` (choice points per schedule) and
``max_schedules``; the report says whether the space was exhausted.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analyze.invariants import Violation
from ..kernel.controlled import (ChoiceRecord, Chooser,
                                 SchedulerController)
from .checkers import run_final_checks, run_state_checks
from .scenarios import Scenario

REDUCTIONS = ("none", "hash", "sleep")


class _Pruned(Exception):
    """Internal: replay reached an already-explored state digest."""


class ReplayChooser(Chooser):
    """Follow a decision prefix, then take the default alternative."""

    def __init__(self, prefix: Tuple[int, ...]):
        self.prefix = prefix
        self.position = 0
        #: True if the prefix asked for an alternative that did not
        #: exist on replay (should never happen: replays are
        #: deterministic; counted defensively rather than crashing).
        self.diverged = False

    def choose(self, kind: str, time: float,
               labels: Tuple[str, ...]) -> int:
        index = 0
        if self.position < len(self.prefix):
            index = self.prefix[self.position]
            if index >= len(labels):
                self.diverged = True
                index = 0
        self.position += 1
        return index


class RunOutcome:
    """Everything observed while replaying one decision prefix."""

    def __init__(self, prefix: Tuple[int, ...]):
        self.prefix = prefix
        self.trail: List[ChoiceRecord] = []
        self.violations: List[Violation] = []
        self.pruned = False
        self.diverged = False
        self.crash: Optional[str] = None
        #: event seq -> effect footprint (snapshot keys changed).
        self.footprints: Dict[int, FrozenSet[tuple]] = {}
        self.instance = None

    @property
    def codes(self) -> FrozenSet[str]:
        return frozenset(v.code for v in self.violations)


class ExplorationReport:
    """Aggregate result of exploring one scenario."""

    def __init__(self, scenario: str, title: str, reduction: str,
                 max_depth: int, max_schedules: int):
        self.scenario = scenario
        self.title = title
        self.reduction = reduction
        self.max_depth = max_depth
        self.max_schedules = max_schedules
        self.schedules = 0
        self.choice_points = 0
        self.deepest = 0
        self.pruned_hash = 0
        self.pruned_sleep = 0
        self.truncated = 0
        self.diverged = 0
        self.exhausted = False
        self.violations: List[Violation] = []
        #: Prefix of the first violating schedule (pre-minimization).
        self.first_violation_prefix: Optional[Tuple[int, ...]] = None
        self.counterexample: Optional[dict] = None

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def codes(self) -> FrozenSet[str]:
        return frozenset(v.code for v in self.violations)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "title": self.title,
            "reduction": self.reduction,
            "max_depth": self.max_depth,
            "max_schedules": self.max_schedules,
            "schedules": self.schedules,
            "choice_points": self.choice_points,
            "deepest": self.deepest,
            "pruned_hash": self.pruned_hash,
            "pruned_sleep": self.pruned_sleep,
            "truncated": self.truncated,
            "diverged": self.diverged,
            "exhausted": self.exhausted,
            "clean": self.clean,
            "violations": [v.as_dict() for v in self.violations],
            "counterexample": self.counterexample,
        }

    def render_text(self) -> str:
        status = "clean" if self.clean else (
            f"{len(self.violations)} violation(s): "
            + ", ".join(sorted(self.codes)))
        coverage = ("exhausted" if self.exhausted
                    else "budget reached")
        lines = [f"{self.scenario}: {status}",
                 f"  {self.title}",
                 f"  schedules={self.schedules} ({coverage}), "
                 f"choice points={self.choice_points}, "
                 f"deepest={self.deepest}, reduction={self.reduction} "
                 f"(hash-pruned={self.pruned_hash}, "
                 f"sleep-skipped={self.pruned_sleep})"]
        if self.truncated:
            lines.append(f"  depth budget truncated "
                         f"{self.truncated} branch point(s)")
        for violation in self.violations[:10]:
            lines.append(f"  {violation}")
        if self.counterexample is not None:
            lines.append(f"  counterexample: "
                         f"{self.counterexample['prefix']}")
        return "\n".join(lines)


class Explorer:
    """Bounded exhaustive exploration of one scenario's schedules."""

    def __init__(self, scenario: Scenario, max_depth: int = 64,
                 max_schedules: int = 2000,
                 reduction: str = "sleep"):
        if reduction not in REDUCTIONS:
            raise ValueError(f"unknown reduction {reduction!r}; "
                             f"expected one of {REDUCTIONS}")
        self.scenario = scenario
        self.max_depth = max_depth
        self.max_schedules = max_schedules
        self.reduction = reduction
        self._digests: Set[str] = set()

    # ------------------------------------------------------------------
    def explore(self) -> ExplorationReport:
        report = ExplorationReport(self.scenario.name,
                                   self.scenario.title,
                                   self.reduction, self.max_depth,
                                   self.max_schedules)
        self._digests.clear()
        stack: List[Tuple[int, ...]] = [()]
        seen_codes: Set[str] = set()
        while stack:
            if report.schedules >= self.max_schedules:
                return report
            prefix = stack.pop()
            outcome = self.execute(prefix)
            report.schedules += 1
            report.choice_points += len(outcome.trail)
            report.deepest = max(report.deepest, len(outcome.trail))
            if outcome.pruned:
                report.pruned_hash += 1
            if outcome.diverged:
                report.diverged += 1
            if outcome.violations:
                for violation in outcome.violations:
                    if violation.code not in seen_codes:
                        seen_codes.add(violation.code)
                        report.violations.append(violation)
                if report.first_violation_prefix is None:
                    report.first_violation_prefix = tuple(
                        record.chosen for record in outcome.trail)
            self._expand(prefix, outcome, stack, report)
        report.exhausted = True
        return report

    # ------------------------------------------------------------------
    def _expand(self, prefix: Tuple[int, ...], outcome: RunOutcome,
                stack: List[Tuple[int, ...]],
                report: ExplorationReport) -> None:
        """Queue the unexplored alternatives this run discovered."""
        trail = outcome.trail
        chosen = tuple(record.chosen for record in trail)
        for depth in range(len(trail) - 1, len(prefix) - 1, -1):
            record = trail[depth]
            if depth >= self.max_depth:
                report.truncated += 1
                continue
            for option in range(record.arity - 1, 0, -1):
                if self._sleep_skip(record, option, outcome):
                    report.pruned_sleep += 1
                    continue
                stack.append(chosen[:depth] + (option,))

    def _sleep_skip(self, record: ChoiceRecord, option: int,
                    outcome: RunOutcome) -> bool:
        """Skip ``option`` when it provably commutes with the choice
        actually taken (disjoint effect footprints)."""
        if self.reduction != "sleep" or record.kind != "event":
            return False
        if outcome.violations or outcome.crash:
            return False  # never prune near a finding
        footprints = outcome.footprints
        taken = footprints.get(record.seqs[record.chosen])
        alternative = footprints.get(record.seqs[option])
        if taken is None or alternative is None:
            return False
        return not (taken & alternative)

    # ------------------------------------------------------------------
    def execute(self, prefix: Tuple[int, ...],
                collect_instance: bool = False,
                reduced: bool = True) -> RunOutcome:
        """Build a fresh system and replay one decision prefix.

        ``reduced=False`` disables pruning and footprint collection
        for this replay — counterexample minimization and replay must
        observe the full run regardless of what exploration has
        already digested.
        """
        outcome = RunOutcome(prefix)
        instance = self.scenario.build()
        chooser = ReplayChooser(prefix)
        controller = SchedulerController(chooser)
        controller.install(instance.kernel)
        outcome.trail = controller.trail
        prefix_len = len(prefix)
        sanitizer = instance.sanitizer
        reduction = self.reduction if reduced else "none"
        want_footprints = reduction == "sleep"
        previous_snapshot = (instance.snapshot() if want_footprints
                             else None)
        state = {"violated": 0}

        def on_choice(record: ChoiceRecord) -> None:
            # This decision's index; state digests are only consulted
            # at *novel* decisions (the replayed prefix necessarily
            # revisits its parent run's states).
            depth = len(controller.trail) - 1
            if reduction != "none" and depth >= prefix_len:
                digest = self._digest(instance)
                if digest in self._digests:
                    raise _Pruned()
                self._digests.add(digest)

        def after_dispatch(kernel, event) -> None:
            nonlocal previous_snapshot
            if want_footprints:
                snapshot = instance.snapshot()
                changed = _diff(previous_snapshot, snapshot,
                                instance.FOOTPRINT_EXCLUDED)
                previous = outcome.footprints.get(event.seq)
                if previous is not None:
                    changed = changed | previous
                outcome.footprints[event.seq] = changed
                previous_snapshot = snapshot
            outcome.violations.extend(run_state_checks(instance))
            if (outcome.violations
                    or len(sanitizer.violations) > state["violated"]):
                raise _Stop()

        controller.on_choice = on_choice
        controller.after_dispatch = after_dispatch
        try:
            instance.run()
            outcome.violations.extend(run_final_checks(instance))
        except _Pruned:
            outcome.pruned = True
        except _Stop:
            pass
        except Exception as error:  # a crash is a finding, not a halt
            outcome.crash = f"{type(error).__name__}: {error}"
            outcome.violations.append(Violation(
                code="VFY-CRASH",
                message=(f"explored schedule crashed the model: "
                         f"{outcome.crash}"),
                time=instance.kernel.now))
        finally:
            instance.kernel.close()
        outcome.violations[:0] = sanitizer.violations
        outcome.diverged = chooser.diverged
        if collect_instance:
            outcome.instance = instance
        return outcome

    # ------------------------------------------------------------------
    def _digest(self, instance) -> str:
        snapshot = instance.snapshot()
        text = repr(sorted(snapshot.items(), key=repr))
        return hashlib.sha1(text.encode("utf-8")).hexdigest()


class _Stop(Exception):
    """Internal: a violation was detected; end the replay early so the
    counterexample trail stays minimal."""


def _diff(before: Optional[dict], after: dict,
          excluded: FrozenSet[tuple]) -> FrozenSet[tuple]:
    """Snapshot keys whose values changed (added/removed/mutated)."""
    assert before is not None
    changed = set()
    for key in before.keys() | after.keys():
        if key in excluded:
            continue
        if before.get(key) != after.get(key):
            changed.add(key)
    return frozenset(changed)
