"""Priority assignment and deadline formulas."""

import pytest

from repro.txn.priority import edf_priority, proportional_deadline


def test_edf_earlier_deadline_is_higher_priority():
    assert edf_priority(10.0) > edf_priority(20.0)


def test_proportional_deadline_scales_with_size():
    short = proportional_deadline(0.0, 2, per_object_time=3.0,
                                  slack_factor=4.0)
    long = proportional_deadline(0.0, 10, per_object_time=3.0,
                                 slack_factor=4.0)
    assert short == 24.0
    assert long == 120.0


def test_proportional_deadline_offsets_arrival():
    deadline = proportional_deadline(100.0, 2, per_object_time=3.0,
                                     slack_factor=4.0)
    assert deadline == 124.0


def test_deadline_validation():
    with pytest.raises(ValueError):
        proportional_deadline(0.0, 0, 3.0, 4.0)
    with pytest.raises(ValueError):
        proportional_deadline(0.0, 2, 3.0, 0.0)

