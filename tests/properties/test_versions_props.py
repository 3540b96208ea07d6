"""Property tests: multiversion store behaves like a sorted map."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.db.versions import MultiVersionStore

versions = st.lists(
    st.tuples(st.floats(min_value=0.1, max_value=1000.0,
                        allow_nan=False),
              st.floats(min_value=-100, max_value=100,
                        allow_nan=False)),
    min_size=1, max_size=30)


def reference_read(installed, timestamp):
    """Oracle: last-write-wins per timestamp, then floor lookup."""
    by_ts = {}
    for ts, value in installed:
        by_ts[ts] = value
    eligible = [(ts, value) for ts, value in by_ts.items()
                if ts <= timestamp]
    if not eligible:
        return (0.0, 0.0)  # the initial version
    return max(eligible, key=lambda pair: pair[0])


@given(versions, st.floats(min_value=0.0, max_value=1000.0,
                           allow_nan=False))
def test_read_as_of_matches_reference(installed, timestamp):
    store = MultiVersionStore()
    for ts, value in installed:
        store.install(1, ts, value)
    assert store.read_as_of(1, timestamp) == reference_read(installed,
                                                            timestamp)


unique_versions = st.lists(
    st.tuples(st.floats(min_value=0.1, max_value=1000.0,
                        allow_nan=False),
              st.floats(min_value=-100, max_value=100,
                        allow_nan=False)),
    min_size=1, max_size=30,
    unique_by=lambda pair: pair[0])


@given(unique_versions)
def test_install_order_is_irrelevant(installed):
    # Same-timestamp reinstall is last-write-wins (idempotent replica
    # redelivery carries identical payloads), so order-independence is
    # only claimed for distinct timestamps.
    forward = MultiVersionStore()
    backward = MultiVersionStore()
    for ts, value in installed:
        forward.install(1, ts, value)
    for ts, value in reversed(installed):
        backward.install(1, ts, value)
    for probe in [ts for ts, __ in installed] + [0.0, 1e9]:
        assert forward.read_as_of(1, probe) == backward.read_as_of(1,
                                                                   probe)


@given(versions)
def test_latest_is_max_timestamp(installed):
    store = MultiVersionStore()
    for ts, value in installed:
        store.install(1, ts, value)
    expected_ts = max(ts for ts, __ in installed)
    assert store.read_as_of(1, math.inf)[0] == expected_ts
