"""Multiversion store: snapshot reads, reordering, overwrites."""

import math

import pytest

from repro.db import MultiVersionStore, NoVersion


def test_latest_of_unwritten_object_is_initial():
    store = MultiVersionStore(initial_timestamp=0.0, initial_value=7.0)
    assert store.read_as_of(1, math.inf) == (0.0, 7.0)


def test_install_and_read_latest():
    store = MultiVersionStore()
    store.install(1, 10.0, 100.0)
    store.install(1, 20.0, 200.0)
    assert store.read_as_of(1, math.inf) == (20.0, 200.0)


def test_read_as_of_picks_latest_not_after():
    store = MultiVersionStore()
    store.install(1, 10.0, 100.0)
    store.install(1, 20.0, 200.0)
    assert store.read_as_of(1, 15.0) == (10.0, 100.0)
    assert store.read_as_of(1, 20.0) == (20.0, 200.0)
    assert store.read_as_of(1, 25.0) == (20.0, 200.0)


def test_read_before_all_versions_falls_back_to_initial():
    store = MultiVersionStore(initial_timestamp=0.0, initial_value=-1.0)
    store.install(1, 10.0, 100.0)
    assert store.read_as_of(1, 5.0) == (0.0, -1.0)


def test_read_before_initial_raises():
    store = MultiVersionStore(initial_timestamp=5.0)
    with pytest.raises(NoVersion):
        store.read_as_of(1, 2.0)


def test_out_of_order_install_keeps_sorted_history():
    store = MultiVersionStore()
    store.install(1, 30.0, 3.0)
    store.install(1, 10.0, 1.0)
    store.install(1, 20.0, 2.0)
    assert store.read_as_of(1, 15.0) == (10.0, 1.0)
    assert store.read_as_of(1, 25.0) == (20.0, 2.0)
    assert store.read_as_of(1, math.inf) == (30.0, 3.0)


def test_duplicate_timestamp_overwrites():
    store = MultiVersionStore()
    store.install(1, 10.0, 1.0)
    store.install(1, 10.0, 9.0)  # idempotent redelivery with new payload
    assert store.version_count(1) == 1
    assert store.read_as_of(1, math.inf) == (10.0, 9.0)


def test_snapshot_is_consistent_across_objects():
    store = MultiVersionStore()
    # Object 1 updated at 10 and 30; object 2 at 20.
    store.install(1, 10.0, 1.0)
    store.install(2, 20.0, 2.0)
    store.install(1, 30.0, 3.0)
    # A snapshot at t=25 sees (1 @10, 2 @20) - mutually consistent.
    assert store.read_as_of(1, 25.0)[0] == 10.0
    assert store.read_as_of(2, 25.0)[0] == 20.0
