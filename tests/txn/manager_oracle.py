"""Reference oracle for the single-site transaction manager.

The shipped :func:`repro.txn.manager.transaction_manager` steps once
per object: an immediate grant starts the CPU burst inside the lock
syscall, and the CPU completion starts the I/O chained to the burst.
This is the body it replaced, written the long way — one yield for the
lock, one for the CPU burst, one for the I/O burst, the wait booked
after every grant — so that any order, hook or statistic the folding
moves shows up as a difference.

:func:`shadowed` makes every :class:`~repro.core.builder.SingleSiteSystem`
built inside the ``with`` block spawn this body instead.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.db.locks import LockMode
from repro.kernel.syscalls import Delay
from repro.txn.transaction import DeadlineMiss, DeadlockAbort


def three_yield_manager(kernel, txn, cc, cpu, io, database, costs,
                        on_done):
    """The manager body with one yield per lock, CPU and I/O burst."""
    cc.register(txn)
    txn.start(kernel)
    hooks = kernel.hooks
    try:
        cpu_burst = cpu.use(costs.cpu_per_object)
        io_burst = io.use(costs.io_per_object)
        while True:
            try:
                for oid, mode in txn.operations:
                    blocked_at = kernel.now
                    yield cc.acquire(txn, oid, mode)
                    txn.blocked_time += kernel.now - blocked_at
                    yield cpu_burst
                    yield io_burst
                    if mode is LockMode.WRITE:
                        database.object(oid).write(float(txn.tid),
                                                   kernel.now)
                cc.release_all(txn)
                if hooks is not None:
                    hooks.lock_commit(kernel.now, cc, txn)
                txn.commit(kernel)
                break
            except DeadlockAbort:
                txn.restarts += 1
                cc.abort(txn)
                if hooks is not None:
                    hooks.txn_restart(kernel.now, txn)
                if costs.restart_delay > 0:
                    yield Delay(costs.restart_delay)
    except DeadlineMiss:
        cc.abort(txn)
        txn.miss(kernel)
    cc.deregister(txn)
    on_done(txn)


def spawn_oracle(kernel, txn, cc, cpu, io, database, costs, on_done):
    """:func:`repro.txn.manager.spawn_transaction` over the oracle."""
    body = three_yield_manager(kernel, txn, cc, cpu, io, database, costs,
                               on_done)
    txn.process = kernel.spawn(body, f"tm-{txn.tid}",
                               priority=txn.priority)
    txn.process.payload = txn


@contextlib.contextmanager
def shadowed():
    """Single-site systems built in the block run the oracle body."""
    with mock.patch("repro.core.builder.spawn_transaction", spawn_oracle):
        yield
