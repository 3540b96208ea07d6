"""Figure 6 — Deadline-Missing Percentage vs Transaction Mix.

Paper claims reproduced here:
- "the performance difference in terms of deadline-missing transactions
  between two approaches increases as the communication delay increases
  over a wide range of transaction mix";
- "As the proportion of read-only transactions increases, the number of
  deadline-missing transactions decreases since the conflict rate will
  decrease".
"""

from repro.bench import SPECS, render, run
from repro.bench.figures import FIG6_DELAYS

SPEC = SPECS["fig6"]


def test_fig6_missed_vs_mix(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    # Misses fall as the read-only share rises (both modes, both
    # delays) - compare the extreme mixes.
    first, last = series[0], series[-1]
    for delay in FIG6_DELAYS:
        for mode in ("local", "global"):
            key = f"{mode}_d{delay:g}"
            assert last[key] <= first[key] + 1e-9

    # The local-vs-global gap widens with the delay on every mix.
    for row in series:
        gap_small = row[f"global_d{FIG6_DELAYS[0]:g}"] - \
            row[f"local_d{FIG6_DELAYS[0]:g}"]
        gap_large = row[f"global_d{FIG6_DELAYS[1]:g}"] - \
            row[f"local_d{FIG6_DELAYS[1]:g}"]
        assert gap_large >= gap_small - 5.0  # widen (noise margin)
        assert gap_large > 0.0
