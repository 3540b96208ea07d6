"""Transaction objects: access sets, state machine, statistics."""

import pytest

from repro.txn import Transaction, TransactionStatus, TransactionType
from tests.conftest import make_txn


def test_needs_operations():
    with pytest.raises(ValueError):
        Transaction([], 0.0, 10.0, 1.0, tid=1)


def test_access_sets_derived_from_operations():
    txn = make_txn([(1, "r"), (2, "w"), (3, "r")], priority=1)
    assert txn.read_set == {1, 3}
    assert txn.write_set == {2}
    assert txn.access_set == {1, 2, 3}
    assert txn.size == 3
    assert not txn.is_read_only


def test_access_sets_iterate_like_sets_filled_in_operation_order():
    # Protocols iterate these sets; their order is a function of the
    # insertion sequence, which must stay "operations, filtered".
    operations = [(oid % 97 * 8, mode)
                  for oid, mode in zip(range(40, 0, -1), "rwwrw" * 8)]
    txn = make_txn(operations, priority=1)
    reads = frozenset(oid for oid, mode in operations if mode == "r")
    writes = frozenset(oid for oid, mode in operations if mode == "w")
    assert list(txn.read_set) == list(reads)
    assert list(txn.write_set) == list(writes)


def test_read_only_detection():
    txn = make_txn([(1, "r"), (2, "r")], priority=1)
    assert txn.is_read_only
    assert txn.txn_type is TransactionType.READ_ONLY


def test_lifecycle_pending_running_committed():
    txn = make_txn([(1, "w")], priority=1)
    assert txn.status is TransactionStatus.PENDING
    txn.mark_started(5.0)
    assert txn.status is TransactionStatus.RUNNING
    assert txn.start_time == 5.0
    txn.mark_committed(9.0)
    assert txn.committed and not txn.missed
    assert txn.processing_time == 4.0


def test_lifecycle_miss():
    txn = make_txn([(1, "w")], priority=1)
    txn.mark_started(1.0)
    txn.mark_missed(20.0)
    assert txn.missed and not txn.committed
    assert txn.finish_time == 20.0


def test_cannot_commit_before_start():
    txn = make_txn([(1, "w")], priority=1)
    with pytest.raises(ValueError):
        txn.mark_committed(1.0)


def test_cannot_start_twice():
    txn = make_txn([(1, "w")], priority=1)
    txn.mark_started(1.0)
    with pytest.raises(ValueError):
        txn.mark_started(2.0)


def test_cannot_miss_after_commit():
    txn = make_txn([(1, "w")], priority=1)
    txn.mark_started(1.0)
    txn.mark_committed(2.0)
    with pytest.raises(ValueError):
        txn.mark_missed(3.0)


def test_pending_transaction_can_miss():
    # Generated but never scheduled before its deadline.
    txn = make_txn([(1, "w")], priority=1)
    txn.mark_missed(5.0)
    assert txn.missed


def test_tids_unique():
    a = make_txn([(1, "w")], priority=1)
    b = make_txn([(1, "w")], priority=1)
    assert a.tid != b.tid
    assert hash(a) != hash(b)
    assert a != b and a == a


def test_processing_time_none_until_finished():
    txn = make_txn([(1, "w")], priority=1)
    assert txn.processing_time is None
    txn.mark_started(1.0)
    assert txn.processing_time is None
