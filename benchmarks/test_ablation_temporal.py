"""Ablation A4 — temporal consistency of replicated views (§4's future
work): how stale do secondary copies get under the local-ceiling
architecture, as a function of the communication delay, and the
multiversion mechanism that bounds it.
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["a4"]


def test_temporal_staleness(run_sweep, replications):
    series = run_sweep(run, SPEC,
                       replications=max(3, replications // 2))
    print()
    print(render(SPEC, series))

    by_delay = {row["delay"]: row for row in series}
    # A copy cannot become visible faster than one network hop: the
    # mean apply latency is bounded below by the communication delay.
    for row in series:
        assert row["mean_apply_latency"] >= row["delay"] - 1e-9
    # Latency (and hence temporal inconsistency) grows with the delay.
    assert by_delay[10.0]["mean_apply_latency"] > \
        by_delay[2.0]["mean_apply_latency"] + 5.0
    # Peak staleness is dominated by worst-case lock contention at the
    # applying site (present at every delay), so it only needs to be
    # comparable across delays — the delay-driven component shows up in
    # the latency means above.
    assert by_delay[10.0]["peak_staleness"] >= \
        by_delay[0.0]["peak_staleness"] - 15.0
    # The local approach's misses stay roughly flat across delays —
    # temporal inconsistency, not deadline misses, is the price paid.
    assert abs(by_delay[10.0]["percent_missed"]
               - by_delay[0.0]["percent_missed"]) < 20.0
