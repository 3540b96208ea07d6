"""The paper's shapes tier-1 has always checked by name, read off the
claims of the figure that states them.

Each shape is stated once, as a claim on its spec in
``repro.bench.figures``; these tests name the claims that carry it and
check them on the spec's own series at 2 replications (the session's
``claimed`` fixture, shared with ``tests/core/test_bench_module.py``).
"""

import dataclasses

from repro.bench import verdicts
from repro.cli import FIGURES


def assert_claims_hold(claimed, figure, *names):
    spec = FIGURES[figure].spec
    claims = tuple(claim for claim in spec.claims if claim.name in names)
    assert [claim.name for claim in claims] == list(names)
    lines, held = verdicts(dataclasses.replace(spec, claims=claims),
                           claimed[figure])
    assert held, "\n".join(lines)


def test_fig3_shape_2pl_misses_rise_sharply_past_ceiling(claimed):
    assert_claims_hold(claimed, "fig3", "L misses past C",
                       "P misses past C")


def test_fig3_driver_deadlocks_grow_with_size(claimed):
    assert_claims_hold(claimed, "fig3", "L deadlocks grow superlinearly")


def test_ceiling_protocol_has_zero_deadlocks_at_any_size(claimed):
    assert_claims_hold(claimed, "fig3", "C never deadlocks")


def test_fig4_shape_local_beats_global_even_at_zero_delay(claimed):
    assert_claims_hold(claimed, "fig4", "local wins at zero delay")


def test_fig4_shape_ratio_grows_with_delay(claimed):
    assert_claims_hold(claimed, "fig4", "ratio grows by delay 2",
                       "ratio keeps growing at mix 0.5")
