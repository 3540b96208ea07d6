"""Ablation A5 — 2PL deadlock-resolution policies.

The paper's model has no deadlock resolution: cycles persist until a
member's hard deadline aborts it ("transactions that miss the deadline
are aborted, and disappear from the system").  This sweep compares that
model ("none") against continuous detection with restart under three
victim-selection rules, quantifying how much of 2PL's Figure-3 collapse
is attributable to unresolved deadlocks.
"""

from repro.bench import SPECS, render, run

SPEC = SPECS["a5"]


def test_deadlock_policies(run_sweep, replications):
    series = run_sweep(run, SPEC, replications=replications)
    print()
    print(render(SPEC, series))

    by_policy = {row["policy"]: row for row in series}
    # Detect-and-restart beats wait-until-deadline on misses.
    none_missed = by_policy["none"]["percent_missed"]
    for policy in ("requester", "lowest_priority", "youngest"):
        assert by_policy[policy]["percent_missed"] <= none_missed
        assert by_policy[policy]["restarts"] > 0
    # The no-resolution model performs no restarts at all.
    assert by_policy["none"]["restarts"] == 0
