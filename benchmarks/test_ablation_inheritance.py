"""Ablation A2 — basic priority inheritance vs the ceiling protocol.

§3.1 argues inheritance alone is "inadequate because the blocking
duration for a transaction, though bounded, can still be substantial
due to the potential chain of blocking" — and deadlocks remain.  This
sweep compares P (no inheritance), PI (inheritance) and C (ceiling) on
the Figure-2/3 workload.
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["a2"]


def test_inheritance_vs_ceiling(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    largest = series[-1]
    # At the largest size the ceiling protocol misses fewest deadlines;
    # inheritance alone does not rescue 2PL from deadlock-driven misses.
    assert largest["missed_C"] < largest["missed_PI"]
    assert largest["missed_C"] < largest["missed_P"]
    # Inheritance is no worse than plain P (it only shortens inversion).
    assert largest["missed_PI"] <= largest["missed_P"] + 10.0
