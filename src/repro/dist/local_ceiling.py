"""The local-ceiling / replication architecture (Section 4, second
approach) — the paper's winner.

Every data object is fully replicated (R1); updates happen only at the
primary's site (R2, single-writer/multiple-reader); and a transaction
commits *before* remote secondary copies are updated (R3) — remote
copies are historical, propagated asynchronously.  "Since we do not have
deadlocks at each site, and locks are not allowed to be held across the
network, we cannot have distributed deadlocks."

Mechanically:

- each site runs its own :class:`PriorityCeiling` over its local copy
  set; all lock traffic is site-local (direct protocol calls — the
  paper's intra-site IPC that bypasses the Message Server);
- reads always hit the local copy (primary or secondary);
- at commit, the update's new values are installed at the local
  primaries, then :class:`ReplicaUpdate` messages fan out to the other
  sites, where a *replica applier* installs each one under a local
  write lock (so propagation consumes real concurrency at the remote
  site — the cost the paper notes limits the local approach as
  communication delay grows);
- appliers use last-writer-wins by version timestamp, so reordered
  deliveries never roll a copy backwards.

Fault tolerance (see :mod:`repro.faults`) is the transport's business
(:mod:`repro.dist.comms`): the fan-out is ``post``-ed, and whether a
post is a bare send or an acknowledged, re-sent delivery is not known
here.  The applier deduplicates by (origin site, origin tid, oid,
version ts) so a repeated update is acknowledged but applied only once.
Applier transactions are site-resident: a crash aborts them (locks
released through the protocol's own abort path) and an origin that
asked for an acknowledgement re-delivers after recovery.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from ..db.locks import LockMode
from ..db.replication import ReplicaCatalog
from ..db.versions import MultiVersionStore
from ..kernel.timers import DeadlineTimer
from ..resources.cpu import CpuBurst
from ..txn.manager import CostModel
from ..txn.transaction import (DeadlineMiss, Transaction,
                               TransactionAbort, TransactionType)
from .comms import ack
from .message import ReplicaUpdate
from .site import Site

REPLICA_SERVICE = "replica"


# ----------------------------------------------------------------------
# replica propagation
# ----------------------------------------------------------------------
def replica_applier(site: Site, catalog: ReplicaCatalog,
                    costs: CostModel, tids: Iterator[int],
                    versions: Optional[MultiVersionStore] = None,
                    stats=None):
    """Generator body: receives ReplicaUpdates, spawns one applier
    transaction per update, numbered from ``tids`` (the system's
    transaction-id counter).

    At-least-once delivery makes duplicates normal under a fault plan:
    an update already applied here (keyed by origin site, origin tid,
    oid and version timestamp) is re-acknowledged immediately and not
    re-installed.
    """
    receive = site.register_service(REPLICA_SERVICE).receive()
    # A syscall only describes its request: one burst serves every
    # update this applier installs.
    apply_burst = (site.cpu.use(costs.apply_cpu) if costs.apply_cpu > 0
                   else None)
    while True:
        message = yield receive
        if not isinstance(message, ReplicaUpdate):
            raise TypeError(f"replica applier got {message!r}")
        key = (message.sender_site, message.origin_tid, message.oid,
               message.timestamp)
        if key in site.applied_updates:
            if stats is not None:
                stats.duplicates_suppressed += 1
            ack(site, message)
            continue
        if key in site.pending_updates:
            # An applier for this very update is still in flight
            # (waiting on the lock or the CPU): dropping the duplicate
            # is safe — no ack yet, so the sender keeps custody until
            # the first copy lands and future copies are re-acked.
            if stats is not None:
                stats.duplicates_suppressed += 1
            continue
        site.pending_updates.add(key)
        txn = Transaction(
            operations=[(message.oid, LockMode.WRITE)],
            arrival_time=site.kernel.now,
            deadline=float("inf"),
            priority=message.origin_priority,
            site=site.site_id,
            txn_type=TransactionType.UPDATE, tid=next(tids))
        body = _apply_update(site, catalog, apply_burst, txn, message,
                             key, versions)
        txn.process = site.kernel.spawn(
            body, f"replica-{site.site_id}-oid{message.oid}",
            priority=txn.priority)
        txn.process.payload = txn
        site.adopt(txn.process)


def _apply_update(site: Site, catalog: ReplicaCatalog,
                  apply_burst: Optional[CpuBurst], txn: Transaction,
                  message: ReplicaUpdate, key: tuple,
                  versions: Optional[MultiVersionStore]):
    cc = site.ceiling
    kernel = site.kernel
    hooks = kernel.hooks
    txn.mark_started(kernel.now)
    cc.register(txn)
    if hooks is not None:
        hooks.txn_start(kernel.now, txn, True)
    try:
        yield cc.acquire(txn, message.oid, LockMode.WRITE)
        if apply_burst is not None:
            yield apply_burst
        data_object = site.database.object(message.oid)
        if message.timestamp >= data_object.version_ts:
            data_object.write(message.value, message.timestamp)
            if hooks is not None:
                hooks.replica_write(kernel.now, catalog, site.site_id,
                                    message.oid, message.timestamp)
            catalog.record_write(site.site_id, message.oid,
                                 message.timestamp)
        site.replica_apply_latencies.append(
            kernel.now - message.timestamp)
        if versions is not None:
            versions.install(message.oid, message.timestamp,
                             message.value)
        cc.release_all(txn)
        txn.mark_committed(kernel.now)
        if hooks is not None:
            hooks.lock_commit(kernel.now, cc, txn)
            hooks.txn_commit(kernel.now, txn, True)
        # Dedup memory + ack only after the install is durable, so a
        # crash between receive and apply leaves the update re-playable.
        site.applied_updates.add(key)
        ack(site, message)
    except TransactionAbort:
        # Site crash (or other abort) mid-apply: release locks and
        # vanish.  No ack is sent, so a sender awaiting one re-delivers.
        cc.abort(txn)
        if hooks is not None:
            hooks.txn_abort(kernel.now, txn, "crash")
    finally:
        site.pending_updates.discard(key)
        cc.deregister(txn)


# ----------------------------------------------------------------------
# the transaction manager (local mode)
# ----------------------------------------------------------------------
def local_transaction_manager(sites: List[Site],
                              catalog: ReplicaCatalog, txn: Transaction,
                              costs: CostModel,
                              on_done: Callable[[Transaction], None],
                              comms,
                              versions: Optional[List[MultiVersionStore]]
                              = None):
    """Generator body for a transaction under the local approach.

    ``comms`` is the home site's transport (:mod:`repro.dist.comms`);
    all this manager asks of it is ``post``, once per (written object,
    other site), after the commit.
    """
    site = sites[txn.site]
    kernel = site.kernel
    cc = site.ceiling
    catalog.check_update_locality(txn.site, txn.write_set)  # R2
    txn.mark_started(kernel.now)
    cc.register(txn)
    hooks = kernel.hooks
    if hooks is not None:
        hooks.txn_start(kernel.now, txn)
    timer = DeadlineTimer(kernel, txn.process, txn.deadline,
                          lambda: DeadlineMiss(txn.tid))
    try:
        cpu_burst = site.cpu.use(costs.cpu_per_object)
        for oid, mode in txn.operations:
            blocked_at = kernel.now
            if hooks is not None:
                hooks.txn_block(blocked_at, txn)
            yield cc.acquire(txn, oid, mode)
            waited = kernel.now - blocked_at
            if hooks is not None:
                hooks.txn_unblock(kernel.now, txn, waited)
            txn.blocked_time += waited
            yield cpu_burst
            data_object = site.database.object(oid)
            if mode is LockMode.READ:
                data_object.read()
        if costs.commit_cpu > 0:
            yield site.cpu.use(costs.commit_cpu)
        # Commit: install at local primaries, then release (strict 2PL).
        commit_ts = kernel.now
        writes = sorted(txn.write_set)
        for oid in writes:
            site.database.object(oid).write(float(txn.tid), commit_ts)
            if hooks is not None:
                hooks.replica_write(commit_ts, catalog, site.site_id,
                                    oid, commit_ts)
            catalog.record_write(site.site_id, oid, commit_ts)
            if versions is not None:
                versions[site.site_id].install(oid, commit_ts,
                                               float(txn.tid))
        cc.release_all(txn)
        txn.mark_committed(kernel.now)
        if hooks is not None:
            hooks.lock_commit(kernel.now, cc, txn)
            hooks.txn_commit(kernel.now, txn)
        # R3: committed first, now propagate asynchronously.
        post = comms.post
        for oid in writes:
            for other in sites:
                if other.site_id == site.site_id:
                    continue
                post(other.site_id, ReplicaUpdate(
                    target=REPLICA_SERVICE, sender_site=site.site_id,
                    oid=oid, value=float(txn.tid), timestamp=commit_ts,
                    origin_priority=txn.priority, origin_tid=txn.tid))
    except TransactionAbort:
        cc.abort(txn)
        txn.mark_missed(kernel.now)
        if hooks is not None:
            hooks.txn_miss(kernel.now, txn, "deadline")
    finally:
        timer.cancel()
        cc.deregister(txn)
        on_done(txn)
