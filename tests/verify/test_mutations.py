"""Seeded order-dependent protocol bugs: the single default schedule
is clean, the explorer finds the violating interleaving, and the
counterexample machinery minimizes, exports and replays it.

All mutations are *order-dependent by construction* — they only
misbehave under an arrival/queue order the uncontrolled simulation
never produces — so they are exactly the class of bug a single seeded
run cannot catch and systematic exploration exists for.  The mutation
fixtures live in ``conftest.py`` (the CLI tests share them).
"""

import json
import os

from repro.verify import (SCENARIOS, Explorer, minimize_prefix, replay,
                          write_counterexample)


def test_default_schedule_misses_ceiling_hole(ceiling_hole):
    explorer = Explorer(SCENARIOS["pcp-2x2"], max_schedules=200,
                        reduction="hash")
    outcome = explorer.execute((), reduced=False)
    assert not outcome.codes, (
        "the mutation must be invisible to the default schedule")


def test_explorer_finds_ceiling_hole(ceiling_hole):
    explorer = Explorer(SCENARIOS["pcp-2x2"], max_schedules=200,
                        reduction="hash")
    report = explorer.explore()
    assert "SAN-PCP-CEILING" in report.codes
    assert report.first_violation_prefix is not None
    assert report.schedules <= 200


def test_default_schedule_misses_lost_wakeup(lost_wakeup):
    explorer = Explorer(SCENARIOS["pcp-3x2"], max_schedules=500,
                        reduction="hash")
    outcome = explorer.execute((), reduced=False)
    assert not outcome.codes


def test_explorer_finds_lost_wakeup(lost_wakeup):
    explorer = Explorer(SCENARIOS["pcp-3x2"], max_schedules=500,
                        reduction="hash")
    report = explorer.explore()
    assert "VFY-MISS" in report.codes
    assert report.first_violation_prefix is not None


def test_default_schedule_misses_stale_index(stale_index):
    explorer = Explorer(SCENARIOS["pcp-3x2"], max_schedules=500,
                        reduction="hash")
    outcome = explorer.execute((), reduced=False)
    assert not outcome.codes


def test_explorer_finds_stale_index(stale_index):
    explorer = Explorer(SCENARIOS["pcp-3x2"], max_schedules=500,
                        reduction="hash")
    report = explorer.explore()
    assert any(code.startswith("VFY-") for code in report.codes)
    assert "VFY-MISS" in report.codes
    assert report.first_violation_prefix is not None


def test_default_schedule_misses_stale_dirty(stale_dirty):
    explorer = Explorer(SCENARIOS["twopl-3x1"], max_schedules=500,
                        reduction="hash")
    outcome = explorer.execute((), reduced=False)
    assert not outcome.codes


def test_explorer_finds_stale_dirty(stale_dirty):
    explorer = Explorer(SCENARIOS["twopl-3x1"], max_schedules=500,
                        reduction="hash")
    report = explorer.explore()
    assert "VFY-MISS" in report.codes
    assert report.first_violation_prefix is not None


def test_default_schedule_misses_stale_settled(stale_settled):
    explorer = Explorer(SCENARIOS["pcp-3x2"], max_schedules=500,
                        reduction="hash")
    outcome = explorer.execute((), reduced=False)
    assert not outcome.codes and not stale_settled


def test_stale_settled_is_a_bounded_delay_no_checker_sees(stale_settled):
    """The settle mutation strands an admissible waiter in explored
    interleavings, yet every schedule stays clean: the waiter's barrier
    is a held lock, and that lock's release re-evaluates whatever the
    settled state says.  The bump it removes is pinned by
    ``tests/cc/test_priority_ceiling.py::
    test_ceiling_drop_on_a_locked_object_unsettles`` and by the oracle's
    replay of skipped passes; here we pin that the explorer reaches the
    interleavings where it bites and that nothing is lost for good."""
    explorer = Explorer(SCENARIOS["pcp-3x2"], max_schedules=500,
                        reduction="hash")
    report = explorer.explore()
    assert stale_settled, "the mutation must bite in some interleaving"
    assert all(leaving > waiter for leaving, waiter in stale_settled)
    assert report.clean


def test_lost_wakeup_bites_on_two_phase_locking(lost_wakeup):
    """2PL overrides ``_reevaluate``; it must still go through the
    base method the mutation replaces."""
    explorer = Explorer(SCENARIOS["twopl-3x1"], max_schedules=500,
                        reduction="hash")
    assert not explorer.execute((), reduced=False).codes
    report = explorer.explore()
    assert "VFY-MISS" in report.codes


def test_counterexample_minimizes_and_replays(ceiling_hole):
    explorer = Explorer(SCENARIOS["pcp-2x2"], max_schedules=200,
                        reduction="hash")
    report = explorer.explore()
    target = report.codes
    minimized = minimize_prefix(explorer,
                                report.first_violation_prefix, target)
    assert len(minimized) <= len(report.first_violation_prefix)
    outcome = replay(explorer, minimized)
    assert target <= outcome.codes, (
        "the minimized prefix must still reproduce the violation")
    # Replays are deterministic: same prefix, same verdict.
    again = replay(explorer, minimized)
    assert outcome.codes == again.codes
    assert [r.as_dict() for r in outcome.trail] == \
        [r.as_dict() for r in again.trail]


def test_counterexample_artifacts(tmp_path, lost_wakeup):
    explorer = Explorer(SCENARIOS["pcp-3x2"], max_schedules=500,
                        reduction="hash")
    report = explorer.explore()
    manifest = write_counterexample(str(tmp_path), explorer,
                                    report.first_violation_prefix,
                                    report.codes)
    assert manifest["codes"] == sorted(report.codes)
    assert os.path.exists(manifest["schedule_path"])
    assert os.path.exists(manifest["trace_path"])
    with open(manifest["schedule_path"], encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk["prefix"] == manifest["prefix"]
    assert on_disk["choices"], "the choice trail must be exported"
    with open(manifest["trace_path"], encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    assert "meta" in events[0]
    assert any(event.get("kind") == "txn_miss"
               for event in events[1:]), (
        "the exported trace must show the missed deadline")


def test_matrix_is_clean_without_mutations():
    """Guard the guards: after the monkeypatched tests above, the
    pristine protocol still passes its smallest scenario."""
    report = Explorer(SCENARIOS["pcp-2x2"], max_schedules=100,
                      reduction="hash").explore()
    assert report.clean
