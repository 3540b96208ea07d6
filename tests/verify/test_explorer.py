"""Exploration over the scenario matrix: clean code has no violating
interleaving, and the reductions agree with ground truth."""

import pytest

from repro.verify import SCENARIOS, Explorer

#: (scenario, reduction) -> (schedules, choice_points, pruned_hash,
#: pruned_sleep), as ``repro verify --format json`` reports them at the
#: default budget: every scenario under ``sleep``, and the four small
#: enough to exhaust under ``none`` (ground truth) and ``hash`` too.
PINNED = {
    ("pcp-2x2", "none"): (6, 16, 0, 0),
    ("twopl-2x2", "none"): (48, 272, 0, 0),
    ("pcp-3x2", "none"): (120, 636, 0, 0),
    ("twopl-3x1", "none"): (90, 432, 0, 0),
    ("pcp-2x2", "hash"): (5, 12, 1, 0),
    ("twopl-2x2", "hash"): (25, 127, 9, 0),
    ("pcp-3x2", "hash"): (77, 380, 27, 0),
    ("twopl-3x1", "hash"): (42, 174, 17, 0),
    ("pcp-2x2", "sleep"): (2, 6, 0, 2),
    ("twopl-2x2", "sleep"): (9, 51, 3, 4),
    ("pcp-3x2", "sleep"): (8, 44, 1, 6),
    ("twopl-3x3", "sleep"): (274, 2615, 174, 17),
    ("twopl-3x1", "sleep"): (2, 10, 0, 8),
    ("dist-global-2x2", "sleep"): (8, 160, 5, 50),
    ("dist-local-2x2", "sleep"): (1, 13, 0, 23),
}

_GROUND_TRUTH = sorted(name for name, reduction in PINNED
                       if reduction == "none")


def _numbers(report):
    return (report.schedules, report.choice_points, report.pruned_hash,
            report.pruned_sleep)


@pytest.mark.parametrize("name", _GROUND_TRUTH)
def test_exhaustive_exploration_is_clean(name):
    explorer = Explorer(SCENARIOS[name], max_schedules=500,
                        reduction="none")
    report = explorer.explore()
    assert report.exhausted
    assert report.clean, (
        f"{name} has a violating interleaving: {sorted(report.codes)}")
    assert _numbers(report) == PINNED[name, "none"]


@pytest.mark.parametrize("name,reduction", sorted(
    key for key in PINNED if key[1] != "none"))
def test_reduced_exploration_is_pinned(name, reduction):
    report = Explorer(SCENARIOS[name], reduction=reduction).explore()
    assert report.exhausted
    assert report.clean, sorted(report.codes)
    assert _numbers(report) == PINNED[name, reduction]


@pytest.mark.parametrize("name", _GROUND_TRUTH)
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
