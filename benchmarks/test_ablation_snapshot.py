"""Ablation A6 — lock-free snapshot reads vs read locks.

§4 proposes multiversion timestamps so transactions "can read the
proper versions of distributed data objects".  Served as lock-free
snapshots, read-only transactions never block and never raise ceilings
against writers; this sweep quantifies the scheduling benefit over the
classic read-lock path under the local ceiling architecture.
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["a6"]


def test_snapshot_reads(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    for row in series:
        # Snapshots never miss more than locking readers, and the
        # benefit is strictly positive somewhere in the sweep.
        assert row["missed_snapshot"] <= row["missed_locking"] + 1.0
        assert row["throughput_snapshot"] >= \
            0.9 * row["throughput_locking"]
    assert any(row["missed_snapshot"] < row["missed_locking"] - 0.5
               for row in series)
