"""Counterexample minimization, replay and export.

A violating schedule is identified by its decision prefix — the list
of alternatives taken at each choice point.  That prefix *is* the
counterexample: replaying it (fresh build, same choices) reproduces
the violation deterministically.  This module shrinks the prefix to a
minimal form and exports two artifacts per counterexample:

- ``<scenario>.schedule.json`` — the minimized prefix plus the full
  choice trail of its replay (kind, time, labels, chosen), i.e. the
  exact interleaving in human-readable form;
- ``<scenario>.trace.jsonl`` — the replay's event trace in the
  standard :mod:`repro.trace` JSONL format, so ``repro report`` (the
  blocking breakdown, ``--profile``, ``--chrome``) reads
  counterexamples unchanged.

Minimization is greedy: repeatedly try dropping the last non-default
choice (everything after it falls back to default tie-breaks) and
then zeroing interior choices, keeping any shrink that still
reproduces the target violation codes.  Each trial is one bounded
replay, so the loop is cheap and always terminates.
"""

from __future__ import annotations

import json
import os
from typing import FrozenSet, Optional, Tuple

from ..trace.export import trace_artifact, write_jsonl
from .explorer import Explorer, RunOutcome


def _reproduces(explorer: Explorer, prefix: Tuple[int, ...],
                target: FrozenSet[str]) -> bool:
    outcome = explorer.execute(prefix, reduced=False)
    return target <= outcome.codes


def minimize_prefix(explorer: Explorer, prefix: Tuple[int, ...],
                    target: FrozenSet[str],
                    max_trials: int = 200) -> Tuple[int, ...]:
    """Shrink ``prefix`` while the replay still shows ``target``."""
    if not target:
        return prefix
    current = list(prefix)
    trials = 0
    shrunk = True
    while shrunk and trials < max_trials:
        shrunk = False
        # Drop trailing decisions (defaults take over from there).
        for cut in range(len(current) - 1, -1, -1):
            if trials >= max_trials:
                break
            trial = tuple(current[:cut])
            trials += 1
            if _reproduces(explorer, trial, target):
                current = list(trial)
                shrunk = True
                break
        if shrunk:
            continue
        # Zero interior non-default choices, latest first.
        for index in range(len(current) - 1, -1, -1):
            if current[index] == 0 or trials >= max_trials:
                continue
            trial = tuple(current[:index] + [0] + current[index + 1:])
            trials += 1
            if _reproduces(explorer, trial, target):
                current = list(trial)
                shrunk = True
                break
    while current and current[-1] == 0:
        current.pop()
    return tuple(current)


def replay(explorer: Explorer,
           prefix: Tuple[int, ...]) -> RunOutcome:
    """Re-execute a counterexample prefix, keeping the instance (and
    therefore its tracer) for inspection or export."""
    return explorer.execute(prefix, collect_instance=True,
                            reduced=False)


def write_counterexample(directory: str, explorer: Explorer,
                         prefix: Tuple[int, ...],
                         target: FrozenSet[str],
                         minimize: bool = True) -> dict:
    """Minimize, replay and export one counterexample.

    Returns a manifest dict (also embedded in the exploration report):
    the minimized prefix, the violation codes it reproduces, and the
    paths of the two artifacts.
    """
    if minimize:
        prefix = minimize_prefix(explorer, prefix, target)
    outcome = replay(explorer, prefix)
    os.makedirs(directory, exist_ok=True)
    name = explorer.scenario.name
    schedule_path = os.path.join(directory, f"{name}.schedule.json")
    trace_path = os.path.join(directory, f"{name}.trace.jsonl")
    manifest = {
        "scenario": name,
        "prefix": list(prefix),
        "codes": sorted(outcome.codes),
        "violations": [v.as_dict() for v in outcome.violations],
        "choices": [record.as_dict() for record in outcome.trail],
        "schedule_path": schedule_path,
        "trace_path": trace_path,
    }
    with open(schedule_path, "w", encoding="utf-8") as sink:
        json.dump(manifest, sink, indent=2, sort_keys=True)
        sink.write("\n")
    assert outcome.instance is not None
    write_jsonl(trace_path, *trace_artifact(outcome.instance.tracer))
    return manifest


def attach_counterexample(report, explorer: Explorer,
                          directory: Optional[str] = None) -> None:
    """Minimize the report's first violating schedule and attach the
    result (exporting artifacts when ``directory`` is given)."""
    prefix = report.first_violation_prefix
    if prefix is None:
        return
    target = report.codes
    if directory is not None:
        report.counterexample = write_counterexample(
            directory, explorer, prefix, target)
        return
    minimized = minimize_prefix(explorer, prefix, target)
    outcome = replay(explorer, minimized)
    report.counterexample = {
        "scenario": explorer.scenario.name,
        "prefix": list(minimized),
        "codes": sorted(outcome.codes),
        "choices": [record.as_dict() for record in outcome.trail],
    }
