"""Instrument mechanics: identity, typed mutation, bucket placement."""

import pytest

from repro.telemetry.instruments import BUCKETS, canonical_labels
from repro.telemetry.registry import MetricsRegistry


def test_canonical_labels_sorts_and_stringifies():
    assert canonical_labels({"b": 2, "a": "x"}) == (("a", "x"),
                                                   ("b", "2"))
    assert canonical_labels() == ()


def test_default_buckets_are_geometric():
    assert len(BUCKETS) == 16
    assert BUCKETS[0] == 0.5
    assert BUCKETS[-1] == 0.5 * 2 ** 15
    ratios = [b / a for a, b in zip(BUCKETS, BUCKETS[1:])]
    assert all(r == 2.0 for r in ratios)


def test_counter_accumulates():
    registry = MetricsRegistry()
    counter = registry.counter("k.events", "events")
    counter.inc(1.0)
    counter.inc(2.0, 3.0)
    assert counter.value == 4.0


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    gauge = registry.gauge("k.depth")
    gauge.set(1.0, 5)
    gauge.inc(2.0)
    gauge.dec(3.0, 2.0)
    assert gauge.value == 4.0


def test_histogram_bucket_placement():
    registry = MetricsRegistry()
    hist = registry.histogram("k.hold")
    # <=0.5 -> bucket 0; values above the last edge -> implicit +Inf.
    for value in (0.25, 0.5, 0.75, 2.0, 20000.0):
        hist.observe(0.0, value)
    assert hist.counts == [2, 1, 1] + [0] * 13 + [1]
    assert hist.sum == pytest.approx(20003.5)
    assert hist.count == 5


def test_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    one = registry.counter("k.events", labels={"site": "0"})
    two = registry.counter("k.events", labels={"site": 0})
    other = registry.counter("k.events", labels={"site": "1"})
    assert one is two
    assert one is not other
    assert len(registry) == 2


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("k.events")
    with pytest.raises(TypeError, match="already registered"):
        registry.gauge("k.events")
