"""Ablation A3 — database size (conflict probability) sweep.

The paper omitted this experiment "because they only confirm and not
increase the knowledge yielded by other experiments": shrinking the
database raises the conflict rate exactly like growing the transaction
size does.  This sweep confirms that claim holds in the reproduction:
2PL deadlocks and misses fall as the database grows, the ceiling
protocol stays deadlock-free throughout.
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["a3"]


def test_dbsize_sweep(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    smallest, largest = series[0], series[-1]
    # More objects -> fewer conflicts -> fewer 2PL deadlocks and misses.
    assert largest["deadlocks_L"] < smallest["deadlocks_L"]
    assert largest["missed_L"] < smallest["missed_L"]
    # The confirmation the paper cites: the ordering at high conflict
    # matches the size-sweep result (C beats L), and the advantage
    # shrinks as conflicts vanish.
    assert smallest["missed_L"] > smallest["missed_C"]
