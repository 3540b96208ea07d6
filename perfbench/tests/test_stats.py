"""Estimator maths on synthetic samples."""

import statistics

import pytest

from perfbench.stats import (paired_verdict, quartile_spread,
                             relative_gap, round_ratio, speed_corrected)


def test_round_ratio_ignores_a_uniform_slowdown():
    units, slices = [0.10, 0.20, 0.30], [0.02, 0.02, 0.02, 0.02]
    assert round_ratio(units, slices) == pytest.approx(30.0)
    slow = 1.37
    assert round_ratio([u * slow for u in units],
                       [s * slow for s in slices]) == pytest.approx(30.0)


def test_median_of_round_ratios_discards_a_disturbed_round():
    clean = ([0.3, 0.3], [0.02, 0.02, 0.02])
    # A co-tenant hit one unit but not its slices: that round reads 2x.
    hit = ([0.3, 0.9], [0.02, 0.02, 0.02])
    ratios = [round_ratio(units, slices)
              for units, slices in (clean, clean, hit, clean, clean)]
    assert statistics.median(ratios) == pytest.approx(30.0)
    # ...where the mean over rounds would not.
    assert statistics.fmean(ratios) > 33.0


def test_speed_correction_reports_nominal_host_seconds():
    # The host ran the 20 ms slice in 30 ms: it is 1.5x slow, so a
    # 0.45 s reading is 0.30 s on the nominal host.
    assert speed_corrected(0.45, 0.030, 0.020) == pytest.approx(0.30)
    assert speed_corrected(0.30, 0.020, 0.020) == pytest.approx(0.30)


def test_quartile_spread_is_the_contract_formula():
    values = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 9.7, 10.2]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_relative_gap_is_signed_by_direction():
    assert relative_gap(100.0, 108.0, "lower") == pytest.approx(0.08)
    assert relative_gap(100.0, 108.0, "higher") == pytest.approx(-0.08)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
          100.3]


def test_paired_rule_claims_a_gain_only_on_a_clear_win():
    verdict, detail = paired_verdict(PARENT, [v * 0.9 for v in PARENT],
                                     "lower", 0.08)
    assert verdict == "gain" and detail["wins"] == 10
    # 2 % better in every pair, but inside the parent's quartiles of
    # a noisier parent: not a gain, and never "unchanged".
    noisy = [100.0, 110.0, 90.0, 105.0, 95.0, 108.0, 92.0, 103.0,
             97.0, 101.0]
    verdict, _ = paired_verdict(noisy, [v * 0.98 for v in noisy],
                                "lower", 0.08)
    assert verdict == "unresolved"


def test_paired_rule_needs_ten_pairs():
    verdict, detail = paired_verdict(PARENT[:5],
                                     [v * 0.5 for v in PARENT[:5]],
                                     "lower", 0.08)
    assert verdict == "unresolved" and detail["pairs"] == 5


def test_paired_rule_regression_and_within_bound():
    verdict, _ = paired_verdict(PARENT, [v * 1.2 for v in PARENT],
                                "lower", 0.08)
    assert verdict == "regression"
    verdict, _ = paired_verdict(PARENT, [v * 1.01 for v in PARENT],
                                "lower", 0.08)
    assert verdict == "within_bound"
    verdict, _ = paired_verdict(PARENT, [v * 0.8 for v in PARENT],
                                "higher", 0.08)
    assert verdict == "regression"
