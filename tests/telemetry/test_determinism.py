"""The metrics zero-perturbation contract (bit-identity property).

Running under an installed :class:`MetricsRegistry` must leave a run
*bitwise identical* to running unmetered — same summary row, key by
key, against the frozen golden files — for both a single-site and a
distributed scenario.  This is what lets ``repro run --metrics``
coexist with the result cache and the golden tier-1 suite.
"""

import contextlib

import pytest

from repro.telemetry import MetricsRegistry, metering
from tests.conftest import metered

from ..core.golden_scenarios import load_golden, run_scenario


@pytest.fixture(autouse=True)
def no_leaked_registry():
    assert metered() == []
    yield
    assert metered() == []


@pytest.mark.parametrize("scenario", ["single_site_pcp", "dist_global",
                                      "dist_faulted"])
def test_metered_run_is_bitwise_identical(scenario):
    plain = run_scenario(scenario)
    with metering(MetricsRegistry()) as registry:
        metered = run_scenario(scenario)
    registry.finalize()
    golden = load_golden(scenario)
    assert plain == golden
    assert metered == golden
    assert len(registry) > 0          # the run really was metered


def test_metering_twice_gives_identical_documents():
    with metering(MetricsRegistry()) as first:
        run_scenario("single_site_pcp")
    first.finalize()
    with metering(MetricsRegistry()) as second:
        run_scenario("single_site_pcp")
    second.finalize()
    assert first.dump()["series"] == second.dump()["series"]


def test_probes_populate_expected_families():
    with metering(MetricsRegistry()) as registry:
        run_scenario("single_site_pcp")
    registry.finalize()
    names = {series["name"] for series in registry.dump()["series"]}
    assert "kernel.events_dispatched" in names
    assert "kernel.wakes_fused" in names
    assert "cc.grants" in names
    assert "txn.committed" in names
    assert "cc.wait_time" in names    # histogram family


def test_distributed_probes_populate_network_families():
    with metering(MetricsRegistry()) as registry:
        run_scenario("dist_faulted")
    registry.finalize()
    names = {series["name"] for series in registry.dump()["series"]}
    assert "net.sent" in names
    assert "net.dropped" in names


def test_a_wait_ended_by_a_miss_is_no_longer_blocked():
    """Every parked request is one ``cc.wait_time`` observation,
    whether a grant ends its wait or a withdrawal (a deadline miss, a
    restart) does, and nothing is still queued once no transaction is
    alive."""
    with metering(MetricsRegistry()) as registry:
        row = run_scenario("single_site_2pl")
    registry.finalize()
    assert row["missed"] > 0
    by_protocol = {}
    for entry in registry.dump()["series"]:
        if entry["name"].startswith("cc."):
            mine = by_protocol.setdefault(entry["labels"]["protocol"], {})
            mine.setdefault(entry["name"], []).append(entry["final"])
    assert by_protocol
    for protocol, series in by_protocol.items():
        assert series["cc.wait_time"][0]["count"] == sum(
            series["cc.blocks"]), protocol
        assert series["cc.withdrawn"][0] > 0, protocol
        assert series["cc.wait_queue"] == [0.0], protocol


def test_summary_never_grows_metrics_keys():
    # Metrics live in the artifact, never in the summary row.
    with metering(MetricsRegistry()):
        row = run_scenario("single_site_pcp")
    assert not any(key.startswith("metrics_") for key in row)


def test_fused_wakes_are_counted_beside_dispatched_events():
    # A fused wake dispatches no event; without its own counter a
    # metrics diff across the change reads as less work scheduled.
    with metering(MetricsRegistry()) as registry:
        run_scenario("single_site_pcp")
    registry.finalize()
    series = {entry["name"]: entry
              for entry in registry.dump()["series"]}
    fused = series["kernel.wakes_fused"]
    assert fused["kind"] == "counter"
    assert fused["points"][-1][1] > 0
    assert "fused wake" in series["kernel.events_dispatched"]["help"]


def test_instrumented_runs_fuse_exactly_like_plain_ones():
    from repro.analyze.sanitizer import sanitize
    from repro.core.builder import SingleSiteSystem
    from repro.core.config import SingleSiteConfig, WorkloadConfig
    from repro.trace.tracer import tracing

    config = SingleSiteConfig(
        protocol="P", db_size=40, seed=5,
        workload=WorkloadConfig(n_transactions=40, transaction_size=5))

    def run(*contexts):
        with contextlib.ExitStack() as stack:
            for context in contexts:
                stack.enter_context(context)
            system = SingleSiteSystem(config)
            system.run()
        return system

    plain = run()
    counts = []
    for contexts in ([tracing()], [metering(MetricsRegistry())],
                     [sanitize()],
                     [tracing(), metering(MetricsRegistry()), sanitize()]):
        system = run(*contexts)
        assert system.summary() == plain.summary()
        counts.append(system.kernel.fused_wakes)
    assert counts[0] > 0 and counts.count(counts[0]) == 4
    # Under REPRO_ENGINE=turbo the plain run is on the engine without
    # the capability (nothing fused); instrumented runs never are.
    expected = counts[0] if plain.kernel.fuses_wakes else 0
    assert plain.kernel.fused_wakes == expected


def _observed_scenarios():
    from repro.core.config import (DistributedConfig, SingleSiteConfig,
                                   TimingConfig, WorkloadConfig)
    from repro.core.experiment import run_distributed, run_single_site
    workload = WorkloadConfig(n_transactions=60, mean_interarrival=2.0,
                              transaction_size=4, size_jitter=1)
    return {
        "single_site_pcp": (run_single_site, SingleSiteConfig(
            protocol="C", db_size=30, seed=5, workload=workload)),
        "2pl_with_victims": (run_single_site, SingleSiteConfig(
            protocol="P", db_size=12, seed=7, workload=workload,
            protocol_options=(("victim_policy", "youngest"),))),
        "dist_global": (run_distributed, DistributedConfig(
            mode="global", comm_delay=1.0, db_size=30, seed=11,
            workload=workload, timing=TimingConfig(slack_factor=8.0))),
    }


@pytest.mark.parametrize("scenario", sorted(_observed_scenarios()))
def test_observers_alone_and_together_see_the_same_run(scenario):
    """One activation, any mix of subscribers: each observer's output
    is the same attached alone as beside the other two, and the row is
    the same as with none."""
    from repro.analyze.sanitizer import Sanitizer
    from repro.kernel.hooks import observing
    from repro.telemetry.probes import probes
    from repro.trace.tracer import Tracer

    run, config = _observed_scenarios()[scenario]

    def outputs(trace=False, meter=False, sanitize=False):
        tracer, registry = Tracer(), MetricsRegistry()
        sanitizer = Sanitizer(strict=False)
        with observing(*([tracer] if trace else []),
                       *(probes(registry) if meter else ()),
                       *([sanitizer] if sanitize else [])):
            row = run(config)
        registry.finalize()
        return (row, list(tracer.events), registry.dump()["series"],
                [str(violation) for violation in sanitizer.violations])

    plain, no_events, no_series, no_violations = outputs()
    assert (no_events, no_series, no_violations) == ([], [], [])
    together = outputs(trace=True, meter=True, sanitize=True)
    assert together[0] == plain
    assert len(together[1]) > 100 and len(together[2]) > 10
    if scenario == "2pl_with_victims":
        assert plain["restarts"] > 0    # ids mattered, victims chosen
    for position, alone in ((1, outputs(trace=True)),
                            (2, outputs(meter=True)),
                            (3, outputs(sanitize=True))):
        assert alone[0] == plain
        assert alone[position] == together[position]
