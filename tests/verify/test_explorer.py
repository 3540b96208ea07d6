"""Exploration over the scenario matrix: clean code has no violating
interleaving, and the reductions agree with ground truth."""

import pytest

from repro.verify import SCENARIOS, Explorer

#: Scenarios small enough for exhaustive (reduction="none") runs in a
#: unit-test budget, with their known ground-truth schedule counts.
_EXHAUSTIVE = {
    "pcp-2x2": 6,
    "twopl-2x2": 48,
    "pcp-3x2": 120,
    "twopl-3x1": 90,
}


@pytest.mark.parametrize("name", sorted(_EXHAUSTIVE))
def test_exhaustive_exploration_is_clean(name):
    explorer = Explorer(SCENARIOS[name], max_schedules=500,
                        reduction="none")
    report = explorer.explore()
    assert report.exhausted
    assert report.clean, (
        f"{name} has a violating interleaving: {sorted(report.codes)}")
    assert report.schedules == _EXHAUSTIVE[name]


@pytest.mark.parametrize("name", sorted(_EXHAUSTIVE))
def test_reductions_agree_with_ground_truth(name):
    """Hash pruning and sleep-set skipping are heuristics: on clean
    code they must still reach the clean verdict, and on these known
    scenarios they must exhaust within the same budget."""
    truth = Explorer(SCENARIOS[name], max_schedules=500,
                     reduction="none").explore()
    for reduction in ("hash", "sleep"):
        reduced = Explorer(SCENARIOS[name], max_schedules=500,
                           reduction=reduction).explore()
        assert reduced.exhausted
        assert reduced.codes == truth.codes
        assert reduced.schedules <= truth.schedules


@pytest.mark.parametrize("name", ["dist-global-2x2", "dist-local-2x2"])
def test_distributed_scenarios_clean_under_sleep(name):
    report = Explorer(SCENARIOS[name], max_schedules=300,
                      reduction="sleep").explore()
    assert report.exhausted
    assert report.clean, sorted(report.codes)


def test_budget_truncation_is_reported():
    report = Explorer(SCENARIOS["twopl-3x3"], max_schedules=10,
                      reduction="none").explore()
    assert report.schedules == 10
    assert not report.exhausted
    assert report.clean


def test_depth_budget_truncates_not_crashes():
    report = Explorer(SCENARIOS["pcp-2x2"], max_depth=1,
                      max_schedules=50, reduction="none").explore()
    assert report.clean
    assert report.truncated > 0


def test_report_shapes():
    explorer = Explorer(SCENARIOS["pcp-2x2"], max_schedules=100,
                        reduction="sleep")
    report = explorer.explore()
    as_dict = report.as_dict()
    for key in ("scenario", "reduction", "schedules", "choice_points",
                "deepest", "exhausted", "clean", "violations"):
        assert key in as_dict, key
    text = report.render_text()
    assert "pcp-2x2" in text
    assert "clean" in text


def test_replay_is_deterministic():
    explorer = Explorer(SCENARIOS["pcp-2x2"], max_schedules=100,
                        reduction="none")
    explorer.explore()
    first = explorer.execute((1,), reduced=False)
    second = explorer.execute((1,), reduced=False)
    assert [r.as_dict() for r in first.trail] == \
        [r.as_dict() for r in second.trail]
    assert first.codes == second.codes


def test_out_of_range_prefix_marks_divergence():
    explorer = Explorer(SCENARIOS["pcp-2x2"], max_schedules=100,
                        reduction="none")
    outcome = explorer.execute((99,), reduced=False)
    assert outcome.diverged
