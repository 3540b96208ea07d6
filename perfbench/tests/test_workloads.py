"""Unit lists: built from the seed, pinned for the default seed."""

import pytest

from perfbench.harness import Checker, load_digests, run_round
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, SimUnit


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_units_other_seed_other_units(name):
    build = WORKLOADS[name].build
    assert build(3) == build(3)
    assert [u.uid for u in build(3)] != [u.uid for u in build(4)]
    assert len({u.uid for u in build(3)}) == len(build(3))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_reorders_pinned_content(name):
    build = WORKLOADS[name].build
    assert sorted(build(3), key=repr) == sorted(build(4), key=repr)


def test_units_are_the_figures_own_first_replication():
    for name in ("fig23_grid", "fig5_grid"):
        assert {u.config.seed for u in WORKLOADS[name].build(5)} == {1}
    assert sorted(u.config.seed
                  for u in WORKLOADS["pcp_overload"].build(5)) == [
        1, 1001, 2001, 3001, 4001, 5001]


def test_pinned_digests_cover_exactly_the_default_seed_units():
    pinned = load_digests()
    assert set(pinned) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert set(pinned[name]) == {
            unit.uid for unit in workload.build(DEFAULT_SEED)}


def test_a_flipped_digest_is_a_counted_failure():
    name = "exec_cache"
    workload = WORKLOADS[name]
    units = workload.build(DEFAULT_SEED)
    finished = run_round(workload, units)

    honest = Checker(name)
    honest.check(units, finished)
    assert (honest.attempted, honest.failed) == (len(units), 0)

    pinned = load_digests()
    victim = units[0].uid
    digest = pinned[name][victim]
    pinned[name][victim] = ("0" if digest[0] != "0" else "1") + digest[1:]
    flipped = Checker(name, pinned)
    flipped.check(units, finished)
    assert flipped.failed == 1 and flipped.fail_share > 0


def test_a_unit_that_raises_is_a_counted_failure(capsys):
    workload = WORKLOADS["pcp_overload"]
    bad = SimUnit("broken", object())
    finished = run_round(workload, [bad])
    assert "broken" in capsys.readouterr().err
    checker = Checker("pcp_overload", {"pcp_overload": {
        "broken": "whatever"}})
    checker.check([bad], finished)
    assert (checker.attempted, checker.failed) == (1, 1)
