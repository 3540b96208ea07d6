"""Transaction objects: access sets, lifecycle, deadline, statistics."""

import pytest

from repro.kernel import Delay, Kernel
from repro.kernel.hooks import observing
from repro.txn import (DeadlineMiss, Transaction, TransactionStatus,
                       TransactionType)
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


def at(kernel, time):
    """Advance ``kernel``'s clock to ``time`` (nothing is due before)."""
    kernel.run(until=time)
    return kernel


class Recorder:
    """Subscriber for the three lifecycle hooks."""

    def __init__(self):
        self.calls = []

    def txn_start(self, t, txn, applier=False):
        self.calls.append(("start", t, txn.tid, applier))

    def txn_commit(self, t, txn, applier=False):
        self.calls.append(("commit", t, txn.tid, applier))

    def txn_miss(self, t, txn, reason):
        self.calls.append(("miss", t, txn.tid, reason))


def test_lifecycle_pending_running_committed():
    kernel = Kernel()
    txn = make_txn([(1, "w")], priority=1)
    assert txn.status is TransactionStatus.PENDING
    txn.start(at(kernel, 5.0))
    assert txn.status is TransactionStatus.RUNNING
    assert txn.start_time == 5.0
    txn.commit(at(kernel, 9.0))
    assert txn.committed and not txn.missed
    assert txn.processing_time == 4.0


def test_lifecycle_miss():
    kernel = Kernel()
    txn = make_txn([(1, "w")], priority=1)
    txn.start(at(kernel, 1.0))
    txn.miss(at(kernel, 20.0))
    assert txn.missed and not txn.committed
    assert txn.finish_time == 20.0


def test_cannot_commit_before_start():
    txn = make_txn([(1, "w")], priority=1)
    with pytest.raises(ValueError):
        txn.commit(Kernel())


def test_cannot_start_twice():
    kernel = Kernel()
    txn = make_txn([(1, "w")], priority=1)
    txn.start(kernel)
    with pytest.raises(ValueError):
        txn.start(kernel)


def test_cannot_miss_after_commit():
    kernel = Kernel()
    txn = make_txn([(1, "w")], priority=1)
    txn.start(kernel)
    txn.commit(kernel)
    with pytest.raises(ValueError):
        txn.miss(kernel)


def test_pending_transaction_can_miss():
    # Refused at admission (a crashed site): never started.
    txn = make_txn([(1, "w")], priority=1)
    txn.miss(at(Kernel(), 5.0), "site-down")
    assert txn.missed
    assert txn.finish_time == 5.0


def test_each_transition_fires_its_hook_once(unobserved):
    recorder = Recorder()
    with observing(recorder):
        kernel = Kernel()
    done, missed = (make_txn([(1, "w")], priority=1) for __ in range(2))
    done.start(at(kernel, 1.0))
    done.commit(at(kernel, 2.0))
    missed.start(kernel)
    missed.miss(at(kernel, 3.0), "orphaned")
    applied = make_txn([(1, "w")], priority=1, deadline=float("inf"))
    applied.start(kernel, applier=True)
    applied.commit(kernel, applier=True)
    assert recorder.calls == [
        ("start", 1.0, done.tid, False), ("commit", 2.0, done.tid, False),
        ("start", 2.0, missed.tid, False),
        ("miss", 3.0, missed.tid, "orphaned"),
        ("start", 3.0, applied.tid, True),
        ("commit", 3.0, applied.tid, True)]


# ----------------------------------------------------------------------
# the deadline: armed by start, disarmed by commit and miss
# ----------------------------------------------------------------------
def spawn(kernel, txn, body):
    txn.process = kernel.spawn(body, f"tm-{txn.tid}")
    return txn.process


def test_deadline_interrupts_at_its_time():
    kernel = Kernel()
    txn = make_txn([(1, "w")], priority=1, deadline=8.0)
    outcome = []

    def body():
        txn.start(kernel)
        try:
            yield Delay(100.0)
        except DeadlineMiss as miss:
            outcome.append((kernel.now, miss.args))
            txn.miss(kernel)

    spawn(kernel, txn, body())
    kernel.run()
    assert outcome == [(8.0, (txn.tid,))]
    assert txn.missed and txn.finish_time == 8.0


def test_commit_and_miss_disarm_the_deadline():
    kernel = Kernel()
    committed = make_txn([(1, "w")], priority=1, deadline=10.0)
    missed = make_txn([(1, "w")], priority=1, deadline=10.0)
    outcome = []

    def body(txn, end):
        txn.start(kernel)
        yield Delay(3.0)
        end(kernel)
        yield Delay(100.0)  # well past the deadline
        outcome.append((txn.tid, kernel.now))

    spawn(kernel, committed, body(committed, committed.commit))
    spawn(kernel, missed, body(missed, missed.miss))
    kernel.run()
    assert outcome == [(committed.tid, 103.0), (missed.tid, 103.0)]
    assert len(kernel.events) == 0


def test_a_past_deadline_fires_at_the_current_instant():
    kernel = Kernel()
    txn = make_txn([(1, "w")], priority=1, deadline=2.0)
    outcome = []

    def body():
        yield Delay(5.0)
        txn.start(kernel)  # the deadline is already past
        try:
            yield Delay(100.0)
        except DeadlineMiss:
            outcome.append(kernel.now)

    spawn(kernel, txn, body())
    kernel.run()
    assert outcome == [5.0]


def test_expiry_after_termination_is_a_no_op():
    kernel = Kernel()
    txn = make_txn([(1, "w")], priority=1, deadline=5.0)

    def body():
        txn.start(kernel)
        yield Delay(1.0)  # ends at 1.0 without commit or miss

    process = spawn(kernel, txn, body())
    kernel.run()  # the deadline fires at 5.0, harmlessly
    assert kernel.now == 5.0
    assert process.terminated and process.exception is None
    assert txn.status is TransactionStatus.RUNNING


def test_an_infinite_deadline_arms_nothing():
    kernel = Kernel()
    txn = make_txn([(1, "w")], priority=1, deadline=float("inf"))
    txn.start(kernel, applier=True)
    assert len(kernel.events) == 0


def test_tids_unique():
    a = make_txn([(1, "w")], priority=1)
    b = make_txn([(1, "w")], priority=1)
    assert a.tid != b.tid
    assert hash(a) != hash(b)
    assert a != b and a == a


def test_processing_time_none_until_finished():
    txn = make_txn([(1, "w")], priority=1)
    assert txn.processing_time is None
    txn.start(Kernel())
    assert txn.processing_time is None
