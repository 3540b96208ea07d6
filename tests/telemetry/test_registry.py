"""Registry windowing semantics and the ``metering`` activation."""

import pytest

from repro.telemetry.registry import MetricsRegistry, metering
from tests.conftest import metered


@pytest.fixture(autouse=True)
def no_leaked_registry():
    assert metered() == []
    yield
    assert metered() == []


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        MetricsRegistry(window=0.0)
    with pytest.raises(ValueError):
        MetricsRegistry(window=-1.0)


def test_mutations_inside_one_window_yield_no_samples():
    registry = MetricsRegistry(window=10.0)
    counter = registry.counter("k.events")
    counter.inc(1.0)
    counter.inc(9.9)
    assert counter.samples == []


def test_window_boundary_samples_at_boundary_time():
    registry = MetricsRegistry(window=10.0)
    counter = registry.counter("k.events")
    counter.inc(1.0)
    counter.inc(12.0)            # crosses the t=10 boundary
    # Sampled at the *boundary* with the value as of the old window.
    assert counter.samples == [(10.0, 1.0)]
    assert counter.value == 2.0


def test_untouched_windows_yield_no_points():
    registry = MetricsRegistry(window=10.0)
    counter = registry.counter("k.events")
    counter.inc(1.0)
    counter.inc(95.0)            # skips windows 10..90 entirely
    registry.finalize()
    # One point at the first boundary, one final partial-window point:
    # nothing for the eight empty windows in between (forward-fill).
    assert counter.samples == [(10.0, 1.0), (95.0, 2.0)]


def test_mutation_at_exact_boundary_lands_in_next_window():
    registry = MetricsRegistry(window=10.0)
    gauge = registry.gauge("k.depth")
    gauge.set(1.0, 3)
    gauge.set(10.0, 7)           # at the boundary -> new window
    assert gauge.samples == [(10.0, 3.0)]


def test_only_dirty_instruments_sample():
    registry = MetricsRegistry(window=10.0)
    active = registry.counter("k.active")
    idle = registry.counter("k.idle")
    active.inc(1.0)
    active.inc(15.0)
    registry.finalize()
    assert len(active.samples) == 2
    assert idle.samples == []


def test_finalize_closes_partial_window_at_last_tick():
    registry = MetricsRegistry(window=50.0)
    counter = registry.counter("k.events")
    counter.inc(7.0)
    registry.finalize()
    assert counter.samples == [(7.0, 1.0)]


def test_finalize_is_idempotent():
    registry = MetricsRegistry(window=10.0)
    counter = registry.counter("k.events")
    counter.inc(3.0)
    registry.finalize()
    registry.finalize()
    assert counter.samples == [(3.0, 1.0)]


def test_dump_sorts_series_and_carries_meta():
    registry = MetricsRegistry(window=10.0, meta={"run": "x"})
    registry.gauge("z.last")
    registry.counter("a.first", labels={"site": "1"})
    registry.counter("a.first", labels={"site": "0"})
    document = registry.dump()
    names = [(s["name"], s["labels"]) for s in document["series"]]
    assert names == [("a.first", {"site": "0"}),
                     ("a.first", {"site": "1"}),
                     ("z.last", {})]
    assert document["meta"] == {"run": "x", "window": 10.0}


def test_dump_histogram_shape():
    registry = MetricsRegistry(window=10.0)
    hist = registry.histogram("k.hold", bounds=(1.0, 2.0))
    hist.observe(0.5, 1.5)
    hist.observe(12.0, 5.0)
    registry.finalize()
    entry = registry.dump()["series"][0]
    assert entry["bounds"] == [1.0, 2.0]
    assert entry["points"][0] == {"t": 10.0, "counts": [0, 1, 0],
                                  "sum": 1.5, "count": 1}
    assert entry["final"] == {"counts": [0, 1, 1], "sum": 6.5,
                              "count": 2}


def test_metering_installs_and_restores():
    assert metered() == []
    with metering() as registry:
        assert metered() == [registry]
        inner = MetricsRegistry(window=5.0)
        with metering(inner):
            # An inner registry's probes shadow the outer one's.
            assert metered() == [inner]
        assert metered() == [registry]
    assert metered() == []
