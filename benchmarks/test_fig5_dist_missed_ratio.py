"""Figure 5 — Deadline Missing Ratio (global / local ceiling).

Paper claims reproduced here:
- "In the range of small communication delays (up to 2 time units),
  this ratio increases rapidly, and then rather slowly after that";
- "As the communication delay increases, the performance ratio
  increases beyond 16".
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["fig5"]


def test_fig5_missed_ratio(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    by_delay = {row["delay"]: row for row in series}
    # Rapid rise over delays 0..2.
    assert by_delay[2.0]["ratio"] > 2.0 * by_delay[0.0]["ratio"] or \
        by_delay[2.0]["ratio"] - by_delay[0.0]["ratio"] > 10.0
    # Slower growth afterwards: the 2->10 increment is smaller than
    # the 0->2 increment.
    early_growth = by_delay[2.0]["ratio"] - by_delay[0.0]["ratio"]
    late_growth = by_delay[10.0]["ratio"] - by_delay[2.0]["ratio"]
    assert late_growth < early_growth
    # The ratio exceeds 16 at large delays.
    assert max(row["ratio"] for row in series) > 16.0
    # Global misses keep rising with delay; local stays roughly flat.
    assert by_delay[10.0]["global_missed"] > \
        by_delay[0.0]["global_missed"]
    assert abs(by_delay[10.0]["local_missed"]
               - by_delay[0.0]["local_missed"]) < 20.0
