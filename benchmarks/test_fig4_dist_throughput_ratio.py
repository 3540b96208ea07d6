"""Figure 4 — Transaction Throughput Ratio (local / global ceiling).

Paper claims reproduced here:
- "Even without considering the communication delay ... the local
  ceiling approach achieves the throughput between 1.5 and 3 times
  higher than that of the global ceiling approach, over the wide range
  of transaction mix";
- "If we consider communication delays, this performance ratio will
  increase accordingly to the communication delay".
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["fig4"]


def test_fig4_throughput_ratio(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    # At zero delay the ratio exceeds ~1.5x on the update-heavy mixes.
    update_heavy = [row for row in series if row["mix"] <= 0.25]
    assert all(row["ratio_d0"] > 1.3 for row in update_heavy)

    # The ratio grows with the communication delay for every mix.
    for row in series:
        assert row["ratio_d2"] > row["ratio_d0"]
        assert row["ratio_d8"] >= row["ratio_d2"] * 0.8  # saturation ok
        assert row["ratio_d8"] > row["ratio_d0"]
