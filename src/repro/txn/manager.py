"""Single-site transaction manager.

One TM process per transaction ("a separate process for each transaction
is created for concurrent execution of transactions").  The TM issues
lock requests through the concurrency-control protocol, consumes CPU and
I/O per data object, commits (releasing all locks — strict two-phase
locking), and reacts to two interrupts:

- :class:`DeadlineMiss` — the hard deadline expired: abort, release
  everything, record the miss, disappear;
- :class:`DeadlockAbort` — chosen as a 2PL deadlock victim: release
  everything and restart from scratch with the original deadline and
  priority.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

from ..db.locks import LockMode
from ..db.objects import Database
from ..kernel.kernel import Kernel
from ..kernel.syscalls import Delay
from ..resources.cpu import CPU
from ..resources.io import ParallelIO
from .transaction import DeadlineMiss, DeadlockAbort, Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cc.base import ConcurrencyControl


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Virtual-time processing costs.

    ``cpu_per_object``/``io_per_object`` make "the total processing time
    of a transaction directly related to the number of data objects
    accessed" (commit processing costs nothing on its own);
    ``restart_delay`` spaces deadlock-victim restarts; ``apply_cpu`` is
    the cost of installing one replicated update at a remote site.
    """

    cpu_per_object: float = 1.0
    io_per_object: float = 2.0
    restart_delay: float = 0.0
    apply_cpu: float = 0.5

    @property
    def per_object_time(self) -> float:
        """No-contention service time per object (deadline formula input)."""
        return self.cpu_per_object + self.io_per_object

    def service_demand(self, size: int) -> float:
        """No-contention total service time of a ``size``-object txn."""
        return size * self.per_object_time


def transaction_manager(kernel: Kernel, txn: Transaction,
                        cc: "ConcurrencyControl", cpu: CPU,
                        io: ParallelIO, database: Database,
                        costs: CostModel,
                        on_done: Callable[[Transaction], None]):
    """Generator body for one transaction's manager process.

    The caller spawns it with the transaction's priority and assigns
    ``txn.process`` before the kernel first steps it.
    """
    cc.register(txn)
    txn.start(kernel)
    hooks = kernel.hooks
    try:
        # A syscall only describes its request, so the per-object
        # access (constant cost) is built once and yielded per object:
        # the CPU burst with the I/O chained to it.  With no I/O time
        # the request stays a step of its own, so those runs (the
        # verifier's scenarios among them) schedule no chained start.
        if costs.io_per_object:
            access = cpu.use(costs.cpu_per_object,
                             io.use(costs.io_per_object))
            tail = None
        else:
            access = cpu.use(costs.cpu_per_object)
            tail = io.use(costs.io_per_object)
        while True:  # restart loop for deadlock victims
            try:
                # One attempt — acquire-and-access every object, then
                # commit — written out here rather than delegated with
                # ``yield from``: every resume would cross both frames.
                for oid, mode in txn.operations:
                    blocked_at = kernel.now
                    # An immediate grant runs the access in the lock
                    # syscall and resumes us when it is done; a late
                    # one resumes us with True, to book the wait first.
                    if (yield cc.acquire(txn, oid, mode, access)):
                        txn.blocked_time += kernel.now - blocked_at
                        yield access
                    if tail is not None:
                        yield tail
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
    # Not a ``finally``: a manager closed in flight (a cut run's
    # ``Kernel.close()`` or the collector) records nothing.
    cc.deregister(txn)
    on_done(txn)


def spawn_transaction(kernel: Kernel, txn: Transaction,
                      cc: "ConcurrencyControl", cpu: CPU, io: ParallelIO,
                      database: Database, costs: CostModel,
                      on_done: Callable[[Transaction], None]) -> None:
    """Create the TM process for ``txn`` at the current virtual time."""
    body = transaction_manager(kernel, txn, cc, cpu, io, database, costs,
                               on_done)
    txn.process = kernel.spawn(body, f"tm-{txn.tid}",
                               priority=txn.priority)
    txn.process.payload = txn
