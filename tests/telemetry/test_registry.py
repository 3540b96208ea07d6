"""Registry windowing semantics and the ``metering`` activation."""

import pytest

from repro.telemetry.registry import MetricsRegistry, metering
from tests.conftest import metered


@pytest.fixture(autouse=True)
def no_leaked_registry():
    assert metered() == []
    yield
    assert metered() == []


# The kernel's sampler is the registry's one clock: at the first event
# of each new window, before that event's hooks, it calls
# ``close_windows``.  These tests drive that clock by hand.

def test_mutations_inside_one_window_yield_no_samples():
    registry = MetricsRegistry()
    counter = registry.counter("k.events")
    counter.inc(1.0)
    counter.inc(49.9)
    assert registry.close_windows(49.9) == 50.0
    assert counter.samples == []


def test_window_boundary_samples_at_boundary_time():
    registry = MetricsRegistry()
    counter = registry.counter("k.events")
    counter.inc(1.0)
    assert registry.close_windows(60.0) == 100.0  # crosses t=50
    counter.inc(60.0)
    # Sampled at the *boundary* with the value as of the old window.
    assert counter.samples == [(50.0, 1.0)]
    assert counter.value == 2.0


def test_untouched_windows_yield_no_points():
    registry = MetricsRegistry()
    counter = registry.counter("k.events")
    counter.inc(1.0)
    assert registry.close_windows(475.0) == 500.0  # skips 50..450
    counter.inc(475.0)
    registry.finalize()
    # One point at the first boundary, one final partial-window point:
    # nothing for the eight empty windows in between (forward-fill).
    assert counter.samples == [(50.0, 1.0), (475.0, 2.0)]


def test_mutation_at_exact_boundary_lands_in_next_window():
    registry = MetricsRegistry()
    gauge = registry.gauge("k.depth")
    gauge.set(1.0, 3)
    assert registry.close_windows(50.0) == 100.0  # at the boundary
    gauge.set(50.0, 7)
    assert gauge.samples == [(50.0, 3.0)]
    registry.finalize()
    assert gauge.samples == [(50.0, 3.0), (50.0, 7.0)]


def test_only_dirty_instruments_sample():
    registry = MetricsRegistry()
    active = registry.counter("k.active")
    idle = registry.counter("k.idle")
    active.inc(1.0)
    registry.close_windows(75.0)
    active.inc(75.0)
    registry.finalize()
    assert len(active.samples) == 2
    assert idle.samples == []


def test_finalize_closes_partial_window_at_last_tick():
    registry = MetricsRegistry()
    counter = registry.counter("k.events")
    counter.inc(7.0)
    registry.finalize()
    assert counter.samples == [(7.0, 1.0)]


def test_finalize_is_idempotent():
    registry = MetricsRegistry()
    counter = registry.counter("k.events")
    counter.inc(3.0)
    registry.finalize()
    registry.finalize()
    assert counter.samples == [(3.0, 1.0)]


def test_dump_sorts_series_and_carries_meta():
    registry = MetricsRegistry(meta={"run": "x"})
    registry.gauge("z.last")
    registry.counter("a.first", labels={"site": "1"})
    registry.counter("a.first", labels={"site": "0"})
    document = registry.dump()
    names = [(s["name"], s["labels"]) for s in document["series"]]
    assert names == [("a.first", {"site": "0"}),
                     ("a.first", {"site": "1"}),
                     ("z.last", {})]
    assert document["meta"] == {"run": "x", "window": 50.0}


def test_dump_histogram_shape():
    registry = MetricsRegistry()
    hist = registry.histogram("k.hold")
    hist.observe(0.5, 1.5)
    registry.close_windows(60.0)
    hist.observe(60.0, 5.0)
    registry.finalize()
    entry = registry.dump()["series"][0]
    assert entry["bounds"] == [0.5 * 2 ** i for i in range(16)]
    assert entry["points"][0] == {"t": 50.0,
                                  "counts": [0, 0, 1] + [0] * 14,
                                  "sum": 1.5, "count": 1}
    assert entry["final"] == {"counts": [0, 0, 1, 0, 1] + [0] * 12,
                              "sum": 6.5, "count": 2}


def test_metering_installs_and_restores():
    assert metered() == []
    with metering() as registry:
        assert metered() == [registry]
        inner = MetricsRegistry()
        with metering(inner):
            # An inner registry's probes shadow the outer one's.
            assert metered() == [inner]
        assert metered() == [registry]
    assert metered() == []
