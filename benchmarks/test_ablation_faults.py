"""Ablation A8 — fault injection: message loss and site crashes.

The paper's distributed experiments assume a fair-weather network;
this sweep measures what each architecture gives up when messages are
lost and sites crash.  The zero-loss / zero-downtime points run the
historical fault-free code path, so the first row of each sweep
doubles as the regression baseline.
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["a8"]


def test_fault_ablation(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    loss = [row for row in series if row["kind"] == "loss"]
    crash = [row for row in series if row["kind"] == "crash"]
    assert [row["x"] for row in loss] == [0.0, 0.05, 0.1]
    assert [row["x"] for row in crash] == [0.0, 40.0]

    for row in series:
        # Both architectures completed every sweep point: the counters
        # are sane and nothing hung (a hung kernel would never return).
        assert 0.0 <= row["local_missed"] <= 100.0
        assert 0.0 <= row["global_missed"] <= 100.0
        assert row["local_throughput"] >= 0.0
        assert row["global_throughput"] >= 0.0

    # The zero-fault points report a healthy network...
    assert loss[0]["messages_lost"] == 0.0
    assert crash[0]["messages_lost"] == 0.0
    # ...and injected loss is visible in the accounting.
    assert all(row["messages_lost"] > 0.0 for row in loss[1:])

    # Faults only hurt: no architecture gets *better* under loss or
    # downtime (small replication noise tolerated).
    for column in ("local_missed", "global_missed"):
        assert loss[-1][column] >= loss[0][column] - 2.0
        assert crash[-1][column] >= crash[0][column] - 2.0
    # The crash scenario visibly degrades the local architecture
    # (dead sites refuse arrivals and strand replicas).
    assert crash[-1]["local_missed"] > crash[0]["local_missed"]
