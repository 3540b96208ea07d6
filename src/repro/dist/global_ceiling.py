"""The global-ceiling-manager architecture (Section 4, first approach).

"The priority ceiling protocol might be implemented in a distributed
environment by using the global ceiling manager at a specific site.  In
this approach, all decisions for ceiling blocking is performed by the
global ceiling manager.  Therefore all the information for ceiling
protocol is stored at the site of the global ceiling manager."

Consequences modelled here, which the paper identifies as the approach's
weakness:

- every lock acquisition from a non-manager site costs a network round
  trip (request + grant), and ceiling blocking happens *at the manager*
  while the requester idles remotely;
- data is partitioned (no replication): accessing a remote primary costs
  a round trip plus CPU at the object's home site;
- update transactions touching remote objects commit via two-phase
  commit, and locks are "held across the network" until the commit
  completes and the release message reaches the manager.

Fault tolerance (see :mod:`repro.faults`) is the transport's business
(:mod:`repro.dist.comms`): the transaction manager below is written
once against ``request`` / ``gather`` / ``post`` and never asks whether
the network can lose a message.  The servers here are deduplicating and
idempotent, so at-least-once delivery composes into exactly-once
protocol state — a repeated registration re-acks, a repeated request
for a held lock re-grants, a repeated release/abort only
re-acknowledges.  The manager's own protocol state is modelled as
recoverable across a crash of its site (write-ahead state on stable
storage): a crash silences it while down, it does not amnesia it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Set

from ..cc.base import ConcurrencyControl
from ..db.locks import LockMode
from ..db.replication import ReplicaCatalog
from ..kernel.syscalls import DONE
from ..txn.manager import CostModel
from ..txn.transaction import Transaction, TransactionAbort
from .comms import ack
from .message import (AbortTxn, DataReply, DataRequest, Decide,
                      LockGrant, LockQueued, LockRequest, Prepare,
                      RegisterTxn, ReleaseAndDeregister, Vote)
from .site import Site

CEILING_SERVICE = "ceiling"
DATA_SERVICE = "data"
COMMIT_SERVICE = "commit"


# ----------------------------------------------------------------------
# server processes
# ----------------------------------------------------------------------
def ceiling_manager(site: Site, cc: ConcurrencyControl, stats=None):
    """Generator body: a lock-manager server loop.

    Historically the *global* ceiling manager; under the table's
    placement hooks the same loop also serves DPCP's resource-local
    agents (one per site, each wrapping its own protocol instance).
    ``cc`` is any protocol that aborts no deadlock victims: the loop
    is an ordinary caller of its one request body,
    :meth:`ConcurrencyControl.attempt`, with a grant callback in place
    of a parked process.

    Keeps the tids of registered and of completed transactions so
    repeated messages (at-least-once delivery under a fault plan) are
    absorbed without double-registering, double-granting or
    double-releasing; a repeated request still queued is recognised in
    the protocol's own wait set.  The dedup branches are only reachable
    when messages repeat.
    """
    receive = site.register_service(CEILING_SERVICE).receive()
    registered: Set[int] = set()
    completed: Set[int] = set()

    while True:
        message = yield receive
        if isinstance(message, RegisterTxn):
            txn = message.txn
            if txn.tid in registered or txn.tid in completed:
                # Duplicate registration (possibly a late copy arriving
                # after the transaction already finished): re-ack only.
                if stats is not None:
                    stats.duplicates_suppressed += 1
            else:
                cc.register(txn)
                registered.add(txn.tid)
            ack(site, message)
        elif isinstance(message, LockRequest):
            txn = message.txn
            reply_site, reply_name = message.reply_to
            if message.queued_ack:
                # A requester that re-sends: absorb retransmissions.
                if txn.tid in completed:
                    # The transaction already released/aborted; this is
                    # a ghost of a completed exchange.
                    if stats is not None:
                        stats.duplicates_suppressed += 1
                    continue
                held = cc.locks.mode_held(message.oid, txn.tid)
                if held is not None and (held is LockMode.WRITE
                                         or message.mode
                                         is LockMode.READ):
                    # Already granted (the grant was lost): re-grant.
                    site.send(reply_site,
                              LockGrant(target=reply_name,
                                        sender_site=site.site_id,
                                        oid=message.oid))
                    if stats is not None:
                        stats.duplicates_suppressed += 1
                    continue
                if cc.is_waiting(txn, message.oid):
                    # Still ceiling-blocked: re-acknowledge the queue.
                    site.send(reply_site,
                              LockQueued(target=reply_name,
                                         sender_site=site.site_id,
                                         oid=message.oid))
                    if stats is not None:
                        stats.duplicates_suppressed += 1
                    continue

            grant = partial(_grant, site, reply_site, reply_name,
                            message.oid)
            if cc.attempt(cc.kernel, txn.process, txn, message.oid,
                          message.mode, on_grant=grant) is DONE:
                grant()
            elif message.queued_ack:
                site.send(reply_site,
                          LockQueued(target=reply_name,
                                     sender_site=site.site_id,
                                     oid=message.oid))
        elif isinstance(message, ReleaseAndDeregister):
            txn = message.txn
            if txn.tid in completed:
                # A retry of an already-processed release: re-ack only.
                if stats is not None:
                    stats.duplicates_suppressed += 1
            else:
                cc.release_all(txn)
                # The protocol-level commit point: under the global
                # approach locks are held across the network until this
                # message, so strict-2PL accounting closes here, not at
                # the originating site's ``txn.commit``.
                hooks = site.kernel.hooks
                if hooks is not None:
                    hooks.lock_commit(site.kernel.now, cc, txn)
                cc.deregister(txn)
                completed.add(txn.tid)
            ack(site, message)
        elif isinstance(message, AbortTxn):
            txn = message.txn
            if txn.tid in completed:
                if stats is not None:
                    stats.duplicates_suppressed += 1
            else:
                cc.cancel_async(txn)
                cc.abort(txn)
                cc.deregister(txn)
                completed.add(txn.tid)
            ack(site, message)
        else:
            raise TypeError(f"ceiling manager got {message!r}")


def _grant(site: Site, reply_site: int, reply_name: str,
           oid: int) -> None:
    """Send the grant of the lock on ``oid`` to its reply port: at
    once for an immediate grant, or as the queued request's
    ``on_grant`` when the protocol admits it later."""
    site.send(reply_site, LockGrant(target=reply_name,
                                    sender_site=site.site_id, oid=oid))


def data_server(site: Site, costs: CostModel):
    """Generator body: serves remote reads/writes on local primaries.

    Each request is handled by a short-lived helper process running at
    the *requesting transaction's priority*, so remote accesses compete
    for this site's CPU exactly like local work would.  Helpers are
    site-resident: a crash aborts them mid-service (the requester's
    retry re-asks after recovery).
    """
    receive = site.register_service(DATA_SERVICE).receive()
    while True:
        message = yield receive
        if not isinstance(message, DataRequest):
            raise TypeError(f"data server got {message!r}")
        helper = site.kernel.spawn(
            _serve_data(site, message, costs),
            f"data-{site.site_id}-txn{message.txn.tid}-{message.oid}",
            priority=message.txn.priority)
        site.adopt(helper)


def _serve_data(site: Site, message: DataRequest, costs: CostModel):
    yield site.cpu.use(costs.cpu_per_object)
    if message.mode is LockMode.WRITE:
        # Workspace write: the durable install happens at 2PC decide.
        value = float(message.txn.tid)
    else:
        value = site.database.object(message.oid).value
    reply_site, reply_name = message.reply_to
    site.send(reply_site, DataReply(target=reply_name,
                                    sender_site=site.site_id,
                                    oid=message.oid, value=value))


def commit_server(site: Site):
    """Generator body: 2PC participant for this site's partition.

    A repeated Decide (re-sent by the coordinator because the ack was
    lost) re-acknowledges without re-installing.
    """
    receive = site.register_service(COMMIT_SERVICE).receive()
    decided: Set[int] = set()
    while True:
        message = yield receive
        if isinstance(message, Prepare):
            reply_site, reply_name = message.reply_to
            site.send(reply_site, Vote(target=reply_name,
                                       sender_site=site.site_id,
                                       txn_tid=message.txn.tid,
                                       commit=True))
        elif isinstance(message, Decide):
            if message.commit and message.txn.tid not in decided:
                now = site.kernel.now
                for oid in message.oids:
                    site.database.object(oid).write(
                        float(message.txn.tid), now)
            decided.add(message.txn.tid)
            ack(site, message)
        else:
            raise TypeError(f"commit server got {message!r}")


# ----------------------------------------------------------------------
# the transaction manager (global mode)
# ----------------------------------------------------------------------
def global_transaction_manager(sites: List[Site],
                               catalog: ReplicaCatalog, txn: Transaction,
                               costs: CostModel,
                               on_done: Callable[[Transaction], None],
                               connect: Callable,
                               router: Optional[Callable[[int], int]]
                               = None):
    """Generator body for a transaction under the global approach.

    ``connect(site, reply, tid=)`` builds this transaction's transport
    (:mod:`repro.dist.comms`) over its reply port; the system chooses
    which.  Every exchange is a ``request`` or a ``gather`` on it, and
    cleanup nobody waits for (release, abort notices, in-doubt
    decisions) is ``post``-ed, so the manager always learns the outcome
    the transport can deliver.

    ``router`` is the table row's per-oid lock routing (DPCP: each
    lock request goes to the resource's own agent site, and the
    transaction registers/releases at every agent it touches).  With
    ``router=None`` all lock traffic goes to the global ceiling
    manager at site 0.
    """
    site = sites[txn.site]
    kernel = site.kernel
    if router is None:
        manager_sites = [0]
    else:
        manager_sites = sorted({router(oid)
                                for oid, __ in txn.operations})
    txn.start(kernel)
    hooks = kernel.hooks
    reply = site.make_reply_port(f"txn{txn.tid}")
    comms = connect(site, reply, tid=txn.tid)
    post = comms.post
    #: Written remote primaries by home site: the 2PC participants.
    by_site: Dict[int, List[int]] = {}
    #: Decide messages of participants that voted but have not yet
    #: acknowledged the decision.
    in_doubt: Dict[int, Decide] = {}
    try:
        # Registration round trip(s): every manager whose resources
        # this transaction touches must know its access sets before
        # any ceiling decision (single-manager protocols: just the
        # global manager).
        for manager in manager_sites:
            yield from comms.request(
                manager,
                lambda: RegisterTxn(target=CEILING_SERVICE,
                                    sender_site=site.site_id,
                                    txn=txn, reply_to=reply.address))

        cpu_burst = site.cpu.use(costs.cpu_per_object)
        for oid, mode in txn.operations:
            blocked_at = kernel.now
            yield from comms.request(
                0 if router is None else router(oid),
                lambda oid=oid, mode=mode: LockRequest(
                    target=CEILING_SERVICE, sender_site=site.site_id,
                    txn=txn, oid=oid, mode=mode,
                    reply_to=reply.address,
                    queued_ack=comms.wants_interim),
                match=lambda m, oid=oid: (isinstance(m, LockGrant)
                                          and m.oid == oid),
                interim=lambda m, oid=oid: (isinstance(m, LockQueued)
                                            and m.oid == oid))
            txn.blocked_time += kernel.now - blocked_at
            home = catalog.primary_site(oid)
            if home == txn.site:
                yield cpu_burst
                if mode is LockMode.WRITE:
                    site.database.object(oid).write(float(txn.tid),
                                                    kernel.now)
            else:
                if mode is LockMode.WRITE:
                    by_site.setdefault(home, []).append(oid)
                yield from comms.request(
                    home,
                    lambda oid=oid, mode=mode, home=home: DataRequest(
                        target=DATA_SERVICE, sender_site=site.site_id,
                        txn=txn, oid=oid, mode=mode,
                        reply_to=reply.address),
                    match=lambda m, oid=oid: (isinstance(m, DataReply)
                                              and m.oid == oid))

        # Two-phase commit across the sites holding written primaries:
        # ``gather`` returns exactly one vote per participant, and the
        # decision is commit iff every vote is.
        if by_site:
            participants = sorted(by_site)
            if hooks is not None:
                hooks.two_pc(kernel.now, txn, "prepare", participants)
            votes = yield from comms.gather(
                participants,
                lambda dst: Prepare(target=COMMIT_SERVICE,
                                    sender_site=site.site_id, txn=txn,
                                    oids=tuple(by_site[dst]),
                                    reply_to=reply.address),
                match=lambda m: (isinstance(m, Vote)
                                 and m.txn_tid == txn.tid))
            commit = all(vote.commit for vote in votes.values())
            in_doubt = {dst: Decide(target=COMMIT_SERVICE,
                                    sender_site=site.site_id, txn=txn,
                                    commit=commit,
                                    oids=tuple(by_site[dst]),
                                    reply_to=reply.address)
                        for dst in participants}
            if hooks is not None:
                hooks.two_pc(kernel.now, txn, "decide", participants,
                             commit)
            yield from comms.gather(participants, in_doubt.get)
            in_doubt = {}
            if hooks is not None:
                hooks.two_pc(kernel.now, txn, "done", participants)
        for manager in manager_sites:
            post(manager, ReleaseAndDeregister(target=CEILING_SERVICE,
                                               sender_site=site.site_id,
                                               txn=txn))
        txn.commit(kernel)
    except TransactionAbort:
        # Resolve any in-doubt participants, then free the locks.  If
        # the decision was already commit when the abort struck (a
        # Decide-ack still outstanding), participants must still learn
        # *commit* — the transaction scores as missed, but 2PC
        # atomicity holds.
        for participant, decide in in_doubt.items():
            post(participant, decide)
        for manager in manager_sites:
            post(manager, AbortTxn(target=CEILING_SERVICE,
                                   sender_site=site.site_id, txn=txn))
        txn.miss(kernel)
    # Not a ``finally``: a manager closed in flight (a cut run's
    # ``Kernel.close()`` or the collector) records nothing.
    reply.close()
    on_done(txn)
