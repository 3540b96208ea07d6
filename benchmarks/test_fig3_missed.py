"""Figure 3 — Percentage of Deadline-Missing Transactions.

Paper claims reproduced here:
- "the percentage of deadline-missing transactions increases sharply
  for the two-phase locking protocol as the transaction size increases"
  (deadlock probability grows ~size^4 [Gray81]);
- "the percentage of deadline-missing transactions increases more
  slowly ... in the priority ceiling protocol" (no deadlocks).
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["fig3"]


def test_fig3_missed(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    largest = series[-1]   # size 20
    mid = series[3]        # size 11
    # 2PL misses rise sharply and overtake C at large sizes.
    assert largest["missed_L"] > largest["missed_C"]
    assert largest["missed_P"] > largest["missed_C"]
    assert largest["missed_L"] > 2.0 * mid["missed_L"] or \
        largest["missed_L"] > 80.0
    # The driver: deadlocks grow superlinearly for 2PL, stay zero for C.
    assert largest["deadlocks_L"] > 4.0 * max(series[1]["deadlocks_L"],
                                              1.0)
    assert all(row["deadlocks_C"] == 0 for row in series)
