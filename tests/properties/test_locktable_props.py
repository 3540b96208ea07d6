"""Property tests: lock table invariants under random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.locks import LockMode, LockTable, compatible

OWNERS = ["t1", "t2", "t3", "t4"]
OIDS = list(range(5))

action = st.tuples(
    st.sampled_from(["acquire_r", "acquire_w", "release_all"]),
    st.sampled_from(OWNERS),
    st.sampled_from(OIDS))


def apply_actions(actions):
    """Drive a LockTable through a random trace, granting only what
    can_grant admits (like a protocol would)."""
    table = LockTable()
    for kind, owner, oid in actions:
        if kind == "release_all":
            table.release_all(owner)
        else:
            mode = (LockMode.READ if kind == "acquire_r"
                    else LockMode.WRITE)
            if table.can_grant(oid, owner, mode):
                table.grant(oid, owner, mode)
    return table


@given(st.lists(action, max_size=60))
def test_no_conflicting_holders_ever(actions):
    table = apply_actions(actions)
    for oid in table.locked_oids():
        holders = list(table.holders(oid).items())
        for i, (owner_a, mode_a) in enumerate(holders):
            for owner_b, mode_b in holders[i + 1:]:
                assert compatible(mode_a, mode_b), (
                    f"{owner_a}:{mode_a} conflicts {owner_b}:{mode_b} "
                    f"on {oid}")


@given(st.lists(action, max_size=60))
def test_reverse_index_matches_holders(actions):
    table = apply_actions(actions)
    for owner in OWNERS:
        for oid, mode in table.locks_of(owner).items():
            assert table.holders(oid).get(owner) == mode
    for oid in table.locked_oids():
        for owner, mode in table.holders(oid).items():
            assert table.locks_of(owner)[oid] == mode


@given(st.lists(action, max_size=60))
def test_release_all_leaves_no_trace(actions):
    table = apply_actions(actions)
    for owner in OWNERS:
        table.release_all(owner)
    assert len(table) == 0
    assert list(table.locked_oids()) == []
    assert table.owners() == set()


@given(st.lists(action, max_size=60))
def test_len_equals_sum_of_holder_counts(actions):
    table = apply_actions(actions)
    assert len(table) == sum(len(table.holders(oid))
                             for oid in table.locked_oids())


@given(st.lists(action, max_size=60), st.sampled_from(OWNERS),
       st.sampled_from(OIDS))
def test_can_grant_iff_no_conflicting_holders(actions, owner, oid):
    table = apply_actions(actions)
    for mode in (LockMode.READ, LockMode.WRITE):
        expected = not table.conflicting_holders(oid, owner, mode)
        assert table.can_grant(oid, owner, mode) == expected


@given(st.lists(action, max_size=60), st.sampled_from(OWNERS),
       st.sampled_from(OIDS))
def test_conflicting_holders_is_compatible_applied_per_holder(
        actions, owner, oid):
    # The table unrolls ``compatible`` on the requested mode; the
    # predicate stays the definition, holder order included.
    table = apply_actions(actions)
    for mode in (LockMode.READ, LockMode.WRITE):
        expected = [other for other, held in table.holders(oid).items()
                    if other != owner and not compatible(held, mode)]
        assert table.conflicting_holders(oid, owner, mode) == expected
