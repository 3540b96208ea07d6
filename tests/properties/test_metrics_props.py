"""Property tests: metric algebra."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (aggregate_runs, confidence_interval,
                                mean, safe_ratio, sample_std)

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(floats, min_size=1, max_size=50))
def test_mean_within_bounds(values):
    result = mean(values)
    assert min(values) - 1e-6 <= result <= max(values) + 1e-6


@given(st.lists(floats, min_size=2, max_size=50))
def test_std_nonnegative_and_zero_for_constant(values):
    assert sample_std(values) >= 0.0
    constant = [values[0]] * len(values)
    # The mean of n identical floats may differ from them by one ulp,
    # so "zero" means zero up to float rounding.
    assert sample_std(constant) <= abs(values[0]) * 1e-12 + 1e-12


@given(st.lists(floats, min_size=2, max_size=50),
       st.floats(min_value=0.1, max_value=100.0))
def test_std_scales_linearly(values, scale):
    scaled = [value * scale for value in values]
    assert math.isclose(sample_std(scaled), sample_std(values) * scale,
                        rel_tol=1e-6, abs_tol=1e-6)


@given(st.lists(floats, min_size=1, max_size=50), floats)
def test_mean_shift_invariance(values, shift):
    shifted = [value + shift for value in values]
    assert math.isclose(mean(shifted), mean(values) + shift,
                        rel_tol=1e-9, abs_tol=1e-3)


@given(st.lists(floats, min_size=2, max_size=50))
def test_confidence_interval_nonnegative(values):
    assert confidence_interval(values) >= 0.0


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
       st.floats(min_value=0.1, max_value=1e3, allow_nan=False))
def test_safe_ratio_respects_cap(numerator, denominator, cap):
    result = safe_ratio(numerator, denominator, cap=cap)
    assert result <= cap + 1e-9
    assert result >= 0.0


@given(st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), floats,
                    min_size=3, max_size=3),
    min_size=1, max_size=10))
def test_aggregate_runs_means_match_manual(rows):
    aggregated = aggregate_runs(rows)
    for key in ("a", "b", "c"):
        expected = mean([row[key] for row in rows])
        assert math.isclose(aggregated[key], expected, rel_tol=1e-9,
                            abs_tol=1e-6)
    assert aggregated["runs"] == float(len(rows))


def three_function_aggregate(rows):
    """``aggregate_runs`` as first written: one call each of mean(),
    sample_std() and confidence_interval() per key."""
    result = {}
    for key in rows[0]:
        values = []
        for row in rows:
            value = row.get(key)
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                break
            values.append(float(value))
        else:
            result[key] = mean(values)
            result[key + "_std"] = sample_std(values)
            result[key + "_ci95"] = confidence_interval(values)
    result["n"] = len(rows)
    result["runs"] = float(len(rows))
    return result


cells = st.one_of(
    st.floats(-1e12, 1e12), st.floats(-1e-6, 1e-6),
    st.integers(-10**6, 10**6), st.booleans(), st.none(),
    st.sampled_from(["C", "edf"]))
summary_rows = st.lists(
    st.dictionaries(st.sampled_from("abcdefgh"), cells, max_size=8),
    min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(summary_rows)
def test_one_pass_aggregate_is_bit_equal_to_three_functions(rows):
    """n = 1, bools, ``None`` and keys missing from later rows
    included; ``float.hex`` tells ``0.0`` from ``-0.0``."""
    got, expected = aggregate_runs(rows), three_function_aggregate(rows)
    assert list(got) == list(expected)
    for key, value in expected.items():
        assert type(got[key]) is type(value)
        if isinstance(value, float):
            assert got[key].hex() == value.hex(), key
        else:
            assert got[key] == value
