"""Ablation A1 — read/write vs exclusive lock semantics (§5's open
question: "the use of read and write semantics of a lock may lead to
worse performance in terms of schedulability than the use of exclusive
semantics ... Is it necessarily true?").

On a read-heavy mixed workload, read/write semantics (C) admit
concurrent readers whenever no active writer declares the object, while
exclusive semantics (Cx) serialize them.  The sweep quantifies the cost
of exclusivity for throughput and deadline misses.
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["a1"]


def test_rw_vs_exclusive(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    # On a read-heavy mix, read/write semantics should not lose to
    # exclusive semantics at any size, and should win at the largest.
    for row in series:
        assert row["throughput_C"] >= 0.8 * row["throughput_Cx"]
    largest = series[-1]
    assert largest["missed_C"] <= largest["missed_Cx"] + 5.0
