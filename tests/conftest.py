"""Shared test helpers: micro-scenario builders for protocol tests.

Protocol tests need hand-built transactions driven by real kernel
processes.  ``LockClient`` is a scripted transaction-manager stand-in:
it acquires the transaction's operations in order, optionally holding
each or all locks for a while, and records a timeline of events the
assertions inspect.
"""

from __future__ import annotations

import itertools

import pytest

from repro.db.locks import LockMode
from repro.kernel import Delay, Kernel, hooks
from repro.txn.transaction import Transaction, TransactionType


@pytest.fixture
def kernel():
    return Kernel(seed=1234)


@pytest.fixture
def unobserved(monkeypatch):
    """No activation at all, whatever the environment asks for (the
    CI job that runs this suite under ``REPRO_SANITIZE=1``); restored
    afterwards."""
    monkeypatch.delenv(hooks.ENV_SANITIZE, raising=False)
    monkeypatch.setattr(hooks, "_ACTIVE", None)


@pytest.fixture(scope="session")
def claimed():
    """Every claimed figure's series at 2 replications, run as its
    command runs it, on two workers and one in-memory cache; run once
    for every module that reads it."""
    from repro.cli import FIGURES, ExecOptions
    from repro.exec import ResultCache
    opts = ExecOptions(jobs=2, cache=ResultCache(None))
    return {name: figure.render(2, opts)[0]
            for name, figure in FIGURES.items() if figure.spec.claims}


def observers(kind=object):
    """The subscribers of class ``kind`` that a kernel built right now
    would report to (empty: nothing of that kind observes)."""
    slot = Kernel().hooks
    return [subscriber
            for subscriber in (() if slot is None else slot.subscribers)
            if isinstance(subscriber, kind)]


def metered():
    """The registries a kernel built right now would be measured into."""
    from repro.telemetry.probes import KernelProbe
    return [probe._registry for probe in observers(KernelProbe)]


#: Ids for hand-built transactions, clear of the ones a system gives
#: its own (from 1): some tests slip one of these into a built system.
_tids = itertools.count(1_000_001)


def make_txn(operations, priority, arrival=0.0, deadline=1e9, site=0):
    """Build a transaction from [(oid, 'r'|'w'), ...] shorthand."""
    ops = [(oid, LockMode.READ if mode == "r" else LockMode.WRITE)
           for oid, mode in operations]
    txn_type = (TransactionType.READ_ONLY
                if all(m is LockMode.READ for __, m in ops)
                else TransactionType.UPDATE)
    return Transaction(ops, arrival, deadline, priority, site=site,
                       txn_type=txn_type, tid=next(_tids))


class LockClient:
    """Scripted lock-acquiring process for concurrency-control tests.

    Records ``(time, event, oid)`` tuples into :attr:`timeline`:
    ``request``/``grant`` per operation, ``done`` at release, and
    ``aborted`` if a TransactionAbort interrupt arrived.
    """

    def __init__(self, kernel, cc, txn, hold=0.0, hold_each=0.0,
                 start_delay=0.0, register=True):
        self.kernel = kernel
        self.cc = cc
        self.txn = txn
        self.hold = hold
        self.hold_each = hold_each
        self.start_delay = start_delay
        self.register = register
        self.timeline = []
        self.txn.process = kernel.spawn(
            self._body(), f"client-{txn.tid}", priority=txn.priority)
        self.txn.process.payload = txn

    def _body(self):
        from repro.txn.transaction import TransactionAbort
        if self.start_delay:
            yield Delay(self.start_delay)
        if self.register:
            self.cc.register(self.txn)
        try:
            for oid, mode in self.txn.operations:
                self.timeline.append((self.kernel.now, "request", oid))
                yield self.cc.acquire(self.txn, oid, mode)
                self.timeline.append((self.kernel.now, "grant", oid))
                if self.hold_each:
                    yield Delay(self.hold_each)
            if self.hold:
                yield Delay(self.hold)
            self.cc.release_all(self.txn)
            self.timeline.append((self.kernel.now, "done", None))
        except TransactionAbort as abort:
            self.cc.abort(self.txn)
            self.timeline.append((self.kernel.now, "aborted",
                                  type(abort).__name__))
        finally:
            self.cc.deregister(self.txn)

    # ------------------------------------------------------------------
    def events(self, kind):
        return [entry for entry in self.timeline if entry[1] == kind]

    def grant_time(self, oid):
        for time, event, event_oid in self.timeline:
            if event == "grant" and event_oid == oid:
                return time
        return None

    @property
    def finished(self):
        return any(event == "done" for __, event, ___ in self.timeline)

    @property
    def aborted(self):
        return any(event == "aborted" for __, event, ___ in self.timeline)
