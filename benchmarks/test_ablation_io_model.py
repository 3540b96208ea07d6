"""Ablation A7 — the parallel-I/O assumption.

"There are few conflicts for the small transactions in the two-phase
locking protocol, and the concurrency is fully achieved with an
assumption of parallel I/O processing."  This sweep replaces the
infinite-server I/O stage with bounded disk arrays: as the I/O
concurrency shrinks, 2PL loses the advantage the assumption gave it,
while the ceiling protocol's near-serial pipeline barely notices.
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["a7"]


def test_io_model_sensitivity(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    by_servers = {row["io_servers"]: row for row in series}
    unlimited = by_servers["inf"]
    single = by_servers[1]
    # With parallel I/O, L at this size is comparable to or ahead of C.
    assert unlimited["throughput_L"] >= 0.8 * unlimited["throughput_C"]
    # A single disk hurts L far more than C (relative to unlimited).
    l_loss = 1.0 - single["throughput_L"] / unlimited["throughput_L"]
    c_loss = 1.0 - single["throughput_C"] / unlimited["throughput_C"]
    assert l_loss > c_loss
    # And misses: bounding I/O increases L's misses.
    assert single["missed_L"] >= unlimited["missed_L"]
