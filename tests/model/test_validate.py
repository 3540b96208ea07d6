"""The model's cross-validation: the ``model`` spec's grid, error
metric, table and budget claims, and its command's CLI contract."""

import re

import pytest

from repro.bench import SPECS, render, verdicts
from repro.bench.figures import (CALIBRATED_POINTS, ERROR_BUDGET,
                                 METRIC_FLOORS, MODES, relative_error)
from repro.cli import main

SPEC = SPECS["model"]


def test_quick_grid_is_ci_sized():
    # The calibrated regime's claim averages at least 12 points.
    assert len(CALIBRATED_POINTS) >= 12
    assert len(set(CALIBRATED_POINTS)) == len(CALIBRATED_POINTS)
    # Every protocol of the overlay cast is represented.
    assert {protocol for protocol, __ in CALIBRATED_POINTS} == \
        {"C", "P", "L"}


def test_full_grid_extends_quick_grid():
    assert set(CALIBRATED_POINTS) < set(SPEC.values)
    assert {point[0] for point in SPEC.values} >= set(MODES)


def test_relative_error_uses_floors():
    # Below the floor the denominator is the floor, not the sim value.
    floor = METRIC_FLOORS["percent_missed"]
    assert relative_error("percent_missed", 0.0, 1.0) == \
        pytest.approx(1.0 / floor)
    # Above the floor it is the plain relative error.
    assert relative_error("percent_missed", 50.0, 40.0) == \
        pytest.approx(0.2)


def test_run_validation_report_shape(claimed):
    rows = claimed["model"]
    assert len(rows) == len(SPEC.values)
    for row in rows:
        for metric in METRIC_FLOORS:
            assert {f"sim_{metric}", f"model_{metric}",
                    f"err_{metric}"} <= set(row)
            assert row[f"err_{metric}"] >= 0.0


def test_run_validation_rejects_empty_grid():
    assert len(SPEC.claims) == 2
    for claim in SPEC.claims:
        with pytest.raises(KeyError):
            claim.holds({})


def test_worst_ranks_by_error(claimed):
    text = render(SPEC, claimed["model"])
    for metric in ERROR_BUDGET:
        line, = [line for line in text.splitlines()
                 if line.startswith(f"worst {metric}: ")]
        errors = [float(x) for x in re.findall(r"\(([0-9.]+)\)", line)]
        assert len(errors) == 2
        assert errors == sorted(errors, reverse=True)


def test_format_report_mentions_budget_verdict(claimed):
    lines, held = verdicts(SPEC, claimed["model"])
    assert held
    assert [line.split(":")[0] for line in lines] == \
        ["[PASS] calibrated regime", "[PASS] whole grid"]
    for line in lines:
        assert "percent_missed <= 0.30" in line
        assert "mean_blocked_time <= 0.40" in line


# ----------------------------------------------------------------------
# CLI argument contract (exit 2 on usage errors; no simulation runs)
# ----------------------------------------------------------------------
def test_cli_rejects_bad_replications(capsys):
    assert main(["model", "--replications", "0"]) == 2
    assert "replications" in capsys.readouterr().err


def test_cli_rejects_nonpositive_budget():
    with pytest.raises(SystemExit) as excinfo:
        main(["validate-model", "--budget-missed", "0"])
    assert excinfo.value.code == 2


def test_cli_rejects_unknown_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["model", "--quick"])
    assert excinfo.value.code == 2


def test_cli_help_documents_quick(capsys):
    with pytest.raises(SystemExit):
        main(["model", "--help"])
    out = capsys.readouterr().out
    for flag in ("--replications", "--jobs", "--cache-dir",
                 "--no-cache", "--progress", "--sanitize"):
        assert flag in out
    assert "--json" not in out
    assert "--quick" not in out
