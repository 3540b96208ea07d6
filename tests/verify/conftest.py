"""Seeded protocol mutations shared by the explorer and CLI tests.

Each fixture breaks the protocol in a way the uncontrolled simulation's
single default schedule never exercises; see ``test_mutations.py``.
"""

import heapq

import pytest

from repro.cc.base import ConcurrencyControl
from repro.cc.priority_ceiling import PriorityCeiling
from repro.cc.twopl import TwoPhaseLocking


@pytest.fixture
def ceiling_hole(monkeypatch):
    """Admission skips the ceiling test when every holder of the
    barrier lock has a larger tid than the requester — invisible
    unless the *later* transaction acquires first."""
    orig = PriorityCeiling._can_acquire

    def mutated(self, txn, oid, mode):
        barrier, barrier_oid = self._ceiling_barrier(txn.tid)
        if barrier is not None and txn.priority <= barrier:
            holders = []
            if barrier_oid is not None:
                holders = [h for h in self.locks.holders(barrier_oid)
                           if h != txn.tid]
            if holders and all(h > txn.tid for h in holders):
                return self.locks.can_grant(oid, txn.tid, mode)
            return False
        return orig(self, txn, oid, mode)

    monkeypatch.setattr(PriorityCeiling, "_can_acquire", mutated)


@pytest.fixture
def lost_wakeup(monkeypatch):
    """Reevaluation silently skips when the wait queue is out of tid
    order — a lost wakeup whose only symptom is the deadline timer
    cleaning up after it."""
    orig = ConcurrencyControl._reevaluate

    def mutated(self):
        if (len(self.waiting) >= 2
                and self.waiting[0].txn.tid > self.waiting[1].txn.tid):
            return
        return orig(self)

    monkeypatch.setattr(ConcurrencyControl, "_reevaluate", mutated)


@pytest.fixture
def stale_index(monkeypatch):
    """The wake-up index drops a waiter from the shared group's heap
    when it queues behind a *later* transaction — it stays in the wait
    list but can never become the group's representative, so nothing
    ever wakes it."""
    orig = PriorityCeiling._enqueue

    def mutated(self, request):
        orig(self, request)
        if (len(self.waiting) >= 2
                and self.waiting[-2].txn.tid > request.txn.tid):
            self._shared_heap[:] = [
                entry for entry in self._shared_heap
                if entry[2] is not request]
            heapq.heapify(self._shared_heap)

    monkeypatch.setattr(PriorityCeiling, "_enqueue", mutated)


@pytest.fixture
def stale_dirty(monkeypatch):
    """The 2PL dirty set misses the objects a transaction frees when an
    *earlier* transaction is waiting behind it — the lock table's
    departure journal is unplugged for that release — so the waiters
    on them are never looked at again."""
    orig = TwoPhaseLocking.release_all

    def mutated(self, txn):
        if not any(request.txn.tid < txn.tid
                   for request in self.waiting):
            return orig(self, txn)
        self.locks.freed = None
        try:
            return orig(self, txn)
        finally:
            self.locks.freed = self._dirty

    monkeypatch.setattr(TwoPhaseLocking, "release_all", mutated)


@pytest.fixture
def stale_settled(monkeypatch):
    """``deregister`` re-files the barrier entry of a still-locked
    object without unsettling the protocol when an *earlier*
    transaction is waiting, so the re-evaluation the dropped ceiling
    calls for is skipped.

    Unlike the mutations above this is not a *lost* wake-up: a waiter
    is only ever held back by a locked object's ceiling, and releasing
    that lock re-evaluates unconditionally, so the stranded waiter is
    delayed by one critical section at most — which no ``VFY-`` checker
    sees in a slack-generous scenario.  Yields the
    ``(leaving tid, stranded tid)`` pairs the mutation caused, so the
    tests can tell "did not bite" from "bit and was absorbed".
    """
    orig_deregister = PriorityCeiling.deregister
    orig_refresh = PriorityCeiling._refresh_entry
    leaving = []
    stranded = []

    def refresh(self, oid, record):
        epoch = self._epoch
        orig_refresh(self, oid, record)
        if leaving and any(request.txn.tid < leaving[-1].tid
                           for request in self.waiting):
            self._epoch = epoch

    def deregister(self, txn):
        leaving.append(txn)
        try:
            orig_deregister(self, txn)
        finally:
            leaving.pop()
        stranded.extend(
            (txn.tid, request.txn.tid) for request in self.waiting
            if self._can_acquire(request.txn, request.oid, request.mode))

    # on_lock_change keeps the original function: only the calls
    # deregister makes by name lose their bump.
    monkeypatch.setattr(PriorityCeiling, "_refresh_entry", refresh)
    monkeypatch.setattr(PriorityCeiling, "deregister", deregister)
    yield stranded
