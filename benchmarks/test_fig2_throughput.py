"""Figure 2 — Transaction Throughput (single site, size sweep).

Paper claims reproduced here:
- "As the transaction size increases, there is little impact on the
  throughput of the priority ceiling protocol" — C is stable over the
  sweep;
- "the performance of the two-phase locking protocol with or without
  priority degrades very rapidly" — P and L collapse at large sizes,
  crossing below C.
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["fig2"]


def test_fig2_throughput(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    # Shape assertions: C stable (max/min bounded), P/L collapse.
    c_values = [row["throughput_C"] for row in series if row["size"] >= 8]
    assert max(c_values) < 4.0 * min(c_values), \
        "C throughput should be stable across sizes"
    l_small = series[1]["throughput_L"]   # size 5
    l_large = series[-1]["throughput_L"]  # size 20
    assert l_large < 0.5 * l_small, \
        "L throughput should degrade rapidly with size"
    assert series[-1]["throughput_C"] > series[-1]["throughput_L"], \
        "C should beat L at the largest size"
    assert series[-1]["throughput_C"] > series[-1]["throughput_P"], \
        "C should beat P at the largest size"
