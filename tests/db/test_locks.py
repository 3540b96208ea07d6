"""Lock table: compatibility, upgrades, release bookkeeping."""

import pytest

from repro.db import LockError, LockMode, LockTable, compatible


def test_compatibility_matrix():
    assert compatible(LockMode.READ, LockMode.READ)
    assert not compatible(LockMode.READ, LockMode.WRITE)
    assert not compatible(LockMode.WRITE, LockMode.READ)
    assert not compatible(LockMode.WRITE, LockMode.WRITE)


def test_grant_and_holders():
    table = LockTable()
    table.grant(1, "t1", LockMode.READ)
    table.grant(1, "t2", LockMode.READ)
    assert table.holders(1) == {"t1": LockMode.READ, "t2": LockMode.READ}
    assert table.is_locked(1)
    assert not table.write_locked(1)


def test_write_lock_excludes_everyone():
    table = LockTable()
    table.grant(1, "t1", LockMode.WRITE)
    assert table.write_locked(1)
    assert not table.can_grant(1, "t2", LockMode.READ)
    assert not table.can_grant(1, "t2", LockMode.WRITE)
    with pytest.raises(LockError):
        table.grant(1, "t2", LockMode.READ)


def test_read_locks_share():
    table = LockTable()
    table.grant(1, "t1", LockMode.READ)
    assert table.can_grant(1, "t2", LockMode.READ)
    assert not table.can_grant(1, "t2", LockMode.WRITE)


def test_regrant_same_mode_is_idempotent():
    table = LockTable()
    table.grant(1, "t1", LockMode.READ)
    table.grant(1, "t1", LockMode.READ)
    assert table.holders(1) == {"t1": LockMode.READ}
    assert len(table) == 1


def test_upgrade_sole_reader_to_writer():
    table = LockTable()
    table.grant(1, "t1", LockMode.READ)
    assert table.can_grant(1, "t1", LockMode.WRITE)
    table.grant(1, "t1", LockMode.WRITE)
    assert table.mode_held(1, "t1") is LockMode.WRITE


def test_upgrade_blocked_by_other_reader():
    table = LockTable()
    table.grant(1, "t1", LockMode.READ)
    table.grant(1, "t2", LockMode.READ)
    assert not table.can_grant(1, "t1", LockMode.WRITE)


def test_write_holder_may_request_anything():
    table = LockTable()
    table.grant(1, "t1", LockMode.WRITE)
    assert table.can_grant(1, "t1", LockMode.READ)
    assert table.can_grant(1, "t1", LockMode.WRITE)
    table.grant(1, "t1", LockMode.READ)  # does not downgrade
    assert table.mode_held(1, "t1") is LockMode.WRITE


def test_conflicting_holders_excludes_self():
    table = LockTable()
    table.grant(1, "t1", LockMode.READ)
    table.grant(1, "t2", LockMode.READ)
    assert table.conflicting_holders(1, "t1", LockMode.WRITE) == ["t2"]
    assert table.conflicting_holders(1, "t3", LockMode.READ) == []


def test_release_single_lock():
    table = LockTable()
    table.grant(1, "t1", LockMode.READ)
    table.grant(1, "t2", LockMode.READ)
    table.release(1, "t1")
    assert table.holders(1) == {"t2": LockMode.READ}
    assert table.locks_of("t1") == {}


def test_release_unheld_lock_raises():
    table = LockTable()
    with pytest.raises(LockError):
        table.release(1, "t1")


def test_release_all_returns_freed_oids():
    table = LockTable()
    table.grant(3, "t1", LockMode.WRITE)
    table.grant(1, "t1", LockMode.READ)
    table.grant(2, "t2", LockMode.READ)
    assert table.release_all("t1") == [1, 3]
    assert not table.is_locked(1)
    assert not table.is_locked(3)
    assert table.is_locked(2)
    assert table.release_all("t1") == []  # idempotent


def test_locks_of_and_owners():
    table = LockTable()
    table.grant(1, "a", LockMode.READ)
    table.grant(2, "a", LockMode.WRITE)
    table.grant(3, "b", LockMode.READ)
    assert table.locks_of("a") == {1: LockMode.READ, 2: LockMode.WRITE}
    assert table.owners() == {"a", "b"}


def test_locked_oids_iterates_live_locks():
    table = LockTable()
    table.grant(1, "a", LockMode.READ)
    table.grant(5, "b", LockMode.WRITE)
    table.release_all("a")
    assert sorted(table.locked_oids()) == [5]


def test_len_counts_grants():
    table = LockTable()
    table.grant(1, "a", LockMode.READ)
    table.grant(1, "b", LockMode.READ)
    table.grant(2, "a", LockMode.WRITE)
    assert len(table) == 3


class _Listener:
    def __init__(self):
        self.changed = []
        self.seen = []

    def on_lock_change(self, oid, record):
        self.changed.append(oid)
        self.seen.append(
            (oid, None if record is None
             else (sorted(record.holders), record.writers, record.seq)))


def test_second_live_subscriber_is_refused():
    table = LockTable()
    first = _Listener()
    table.subscribe(first)
    table.subscribe(first)  # the same listener again: a no-op
    with pytest.raises(LockError, match="already notifies"):
        table.subscribe(_Listener())
    table.grant(1, "t1", LockMode.READ)
    assert first.changed == [1], "the refused subscriber took the slot"


def test_dead_subscriber_frees_the_slot():
    table = LockTable()
    table.subscribe(_Listener())  # collected at once: held weakly
    second = _Listener()
    table.subscribe(second)
    table.grant(1, "t1", LockMode.READ)
    assert second.changed == [1]


def test_listener_is_handed_the_record_of_the_new_state():
    table = LockTable()
    listener = _Listener()
    table.subscribe(listener)
    table.grant(7, "t1", LockMode.READ)
    table.grant(7, "t2", LockMode.READ)      # joins: same record
    table.grant(9, "t1", LockMode.WRITE)
    table.release(7, "t2")                   # still locked
    assert listener.seen == [(7, (["t1"], 0, 0)),
                             (7, (["t1", "t2"], 0, 0)),
                             (9, (["t1"], 1, 1)),
                             (7, (["t1"], 0, 0))]
    del listener.seen[:]
    table.grant(9, "t1", LockMode.WRITE)     # idempotent: no transition
    table.release(9, "t1")                   # unlocked: no record
    assert listener.seen == [(9, None)]


def test_release_all_notifies_after_every_lock_is_gone():
    table = LockTable()
    states = []

    class Probe:
        def on_lock_change(self, oid, record):
            states.append((oid, record is table.records.get(oid),
                           sorted(table.locked_oids())))

    probe = Probe()
    table.subscribe(probe)
    table.grant(1, "t1", LockMode.WRITE)
    table.grant(2, "t1", LockMode.READ)
    table.grant(2, "t2", LockMode.READ)
    del states[:]
    assert table.release_all("t1") == [1, 2]
    # Both notifications see the final table; oid 2 keeps its record.
    assert states == [(1, True, [2]), (2, True, [2])]
    assert table.records[2].holders == {"t2": LockMode.READ}
    assert table.release_all("nobody") == [] and len(states) == 2


def test_records_view_is_live_and_read_only():
    table = LockTable()
    view = table.records
    assert 1 not in view
    table.grant(1, "t1", LockMode.READ)
    assert 1 in view and view[1].seq == 0
    with pytest.raises(TypeError):
        view[2] = view[1]
    table.release_all("t1")
    assert 1 not in view and table.records is view


def test_departure_journal_records_releases_not_grants():
    table = LockTable()
    table.freed = {}
    table.grant(1, "t1", LockMode.READ)
    table.grant(1, "t2", LockMode.READ)
    table.grant(2, "t1", LockMode.WRITE)
    table.grant(3, "t1", LockMode.WRITE)
    assert table.freed == {}
    table.release(1, "t2")  # journaled although oid 1 stays locked
    assert list(table.freed) == [1]
    table.freed.clear()
    table.release_all("t1")
    assert list(table.freed) == [1, 2, 3]
