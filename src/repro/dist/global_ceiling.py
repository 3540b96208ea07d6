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

Fault tolerance (see :mod:`repro.faults`): the servers here are
deduplicating and idempotent, so the at-least-once delivery the
:class:`~repro.dist.comms.ReliableComms` layer provides composes into
exactly-once protocol state — a retried registration re-acks, a retried
request for a held lock re-grants, a retried release/abort only
re-acknowledges.  The manager's own protocol state is modelled as
recoverable across a crash of its site (write-ahead state on stable
storage): a crash silences it while down, it does not amnesia it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..cc.base import ConcurrencyControl
from ..db.locks import LockMode
from ..db.replication import ReplicaCatalog
from ..kernel.timers import DeadlineTimer
from ..txn.manager import CostModel
from ..txn.transaction import (DeadlineMiss, Transaction,
                               TransactionAbort)
from ..txn.two_phase_commit import TwoPhaseCommit
from .comms import DirectComms, RecoveryPolicy, ReliableComms, courier
from .message import (Ack, AbortTxn, DataReply, DataRequest, Decide,
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

    Historically the *global* ceiling manager; under the registry's
    placement hooks the same loop also serves DPCP's resource-local
    agents (one per site, each wrapping its own protocol instance).
    ``cc`` is any protocol supporting the async acquire path.

    Keeps a registry of active transactions and of queued lock
    requests so retried messages (at-least-once delivery under a fault
    plan) are absorbed without double-registering, double-granting or
    double-releasing.  Fault-free runs take the identical code path —
    the dedup branches are only reachable when messages repeat.
    """
    receive = site.register_service(CEILING_SERVICE).receive()
    registered: Dict[int, Transaction] = {}
    completed: Set[int] = set()
    queued: Set[Tuple[int, int]] = set()

    def ack(reply_to, tag: str) -> None:
        if reply_to is None:
            return
        reply_site, reply_name = reply_to
        site.send(reply_site, Ack(target=reply_name,
                                  sender_site=site.site_id, tag=tag))

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
                registered[txn.tid] = txn
            ack(message.reply_to, "registered")
        elif isinstance(message, LockRequest):
            txn = message.txn
            reply_site, reply_name = message.reply_to
            if message.queued_ack:
                # Recovery-mode requester: absorb retransmissions.
                if txn.tid in completed:
                    # The transaction already released/aborted; this is
                    # a ghost of a completed exchange.
                    if stats is not None:
                        stats.duplicates_suppressed += 1
                    continue
                held = cc.locks.mode_held(message.oid, txn)
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
                if (txn.tid, message.oid) in queued:
                    # Still ceiling-blocked: re-acknowledge the queue.
                    site.send(reply_site,
                              LockQueued(target=reply_name,
                                         sender_site=site.site_id,
                                         oid=message.oid))
                    if stats is not None:
                        stats.duplicates_suppressed += 1
                    continue

            def make_grant(reply_site=reply_site, reply_name=reply_name,
                           oid=message.oid, tid=txn.tid):
                def deliver():
                    queued.discard((tid, oid))
                    site.send(reply_site,
                              LockGrant(target=reply_name,
                                        sender_site=site.site_id,
                                        oid=oid))
                return deliver

            granted = cc.acquire_async(txn, message.oid, message.mode,
                                       on_grant=make_grant(),
                                       process=txn.process)
            if granted:
                make_grant()()
            else:
                queued.add((txn.tid, message.oid))
                if message.queued_ack:
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
                # mark_committed.
                hooks = site.kernel.hooks
                if hooks is not None:
                    hooks.lock_commit(site.kernel.now, cc, txn)
                cc.deregister(txn)
                registered.pop(txn.tid, None)
                completed.add(txn.tid)
            ack(message.reply_to, f"released-{txn.tid}")
        elif isinstance(message, AbortTxn):
            txn = message.txn
            if txn.tid in completed:
                if stats is not None:
                    stats.duplicates_suppressed += 1
            else:
                cc.cancel_async(txn)
                cc.abort(txn)
                cc.deregister(txn)
                registered.pop(txn.tid, None)
                completed.add(txn.tid)
                queued.difference_update(
                    {entry for entry in queued if entry[0] == txn.tid})
            ack(message.reply_to, f"aborted-{txn.tid}")
        else:
            raise TypeError(f"ceiling manager got {message!r}")


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
    data_object = site.database.object(message.oid)
    if message.mode is LockMode.WRITE:
        # Workspace write: the durable install happens at 2PC decide.
        value = float(message.txn.tid)
    else:
        value = data_object.read()
    reply_site, reply_name = message.reply_to
    site.send(reply_site, DataReply(target=reply_name,
                                    sender_site=site.site_id,
                                    oid=message.oid, value=value))


def commit_server(site: Site, costs: CostModel):
    """Generator body: 2PC participant for this site's partition.

    A repeated Decide (retried by the coordinator because the ack was
    lost) re-acknowledges without re-installing.
    """
    receive = site.register_service(COMMIT_SERVICE).receive()
    decided: Set[int] = set()
    while True:
        message = yield receive
        if isinstance(message, Prepare):
            if costs.commit_cpu > 0:
                yield site.cpu.use(costs.commit_cpu)
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
            reply_site, reply_name = message.reply_to
            site.send(reply_site, Ack(target=reply_name,
                                      sender_site=site.site_id,
                                      tag=f"decided-{message.txn.tid}"))
        else:
            raise TypeError(f"commit server got {message!r}")


# ----------------------------------------------------------------------
# the transaction manager (global mode)
# ----------------------------------------------------------------------
def global_transaction_manager(sites: List[Site], gcm_site: int,
                               catalog: ReplicaCatalog, txn: Transaction,
                               costs: CostModel,
                               on_done: Callable[[Transaction], None],
                               policy: Optional[RecoveryPolicy] = None,
                               router: Optional[Callable[[int], int]]
                               = None):
    """Generator body for a transaction under the global approach.

    Without a recovery ``policy`` every exchange is the historical
    blocking send/receive (bit-identical to the pre-fault code).  With
    one, every RPC times out and retries (the deadline timer bounds the
    total), and commit-path cleanup is handed to bounded-attempt
    couriers so the manager always learns the outcome.

    ``router`` is the registry spec's per-oid lock routing (DPCP:
    each lock request goes to the resource's own agent site, and the
    transaction registers/releases at every agent it touches).  With
    ``router=None`` all lock traffic goes to ``gcm_site`` on the
    bit-identical single-manager path.
    """
    site = sites[txn.site]
    kernel = site.kernel
    if router is None:
        manager_sites = [gcm_site]
    else:
        manager_sites = sorted({router(oid)
                                for oid, __ in txn.operations})
    txn.mark_started(kernel.now)
    hooks = kernel.hooks
    if hooks is not None:
        hooks.txn_start(kernel.now, txn)
    timer = DeadlineTimer(kernel, txn.process, txn.deadline,
                          lambda: DeadlineMiss(txn.tid))
    reply = site.make_reply_port(f"txn{txn.tid}")
    if policy is None:
        comms = DirectComms(site, reply, tid=txn.tid)
    else:
        comms = ReliableComms(site, reply, policy, tid=txn.tid)
    prepared: List[int] = []
    by_site: Dict[int, List[int]] = {}
    decided_commit = False
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
                                    txn=txn, reply_to=reply.address),
                match=lambda m, manager=manager: (
                    isinstance(m, Ack) and m.tag == "registered"
                    and m.sender_site == manager))

        cpu_burst = site.cpu.use(costs.cpu_per_object)
        for oid, mode in txn.operations:
            blocked_at = kernel.now
            if hooks is not None:
                hooks.txn_block(blocked_at, txn)
            yield from comms.request(
                gcm_site if router is None else router(oid),
                lambda oid=oid, mode=mode: LockRequest(
                    target=CEILING_SERVICE, sender_site=site.site_id,
                    txn=txn, oid=oid, mode=mode,
                    reply_to=reply.address,
                    queued_ack=comms.recovery),
                match=lambda m, oid=oid: (isinstance(m, LockGrant)
                                          and m.oid == oid),
                interim=lambda m, oid=oid: (isinstance(m, LockQueued)
                                            and m.oid == oid))
            waited = kernel.now - blocked_at
            if hooks is not None:
                hooks.txn_unblock(kernel.now, txn, waited)
            txn.blocked_time += waited
            home = catalog.primary_site(oid)
            if home == txn.site:
                yield cpu_burst
                data_object = site.database.object(oid)
                if mode is LockMode.WRITE:
                    data_object.write(float(txn.tid), kernel.now)
                else:
                    data_object.read()
            else:
                yield from comms.request(
                    home,
                    lambda oid=oid, mode=mode, home=home: DataRequest(
                        target=DATA_SERVICE, sender_site=site.site_id,
                        txn=txn, oid=oid, mode=mode,
                        reply_to=reply.address),
                    match=lambda m, oid=oid: (isinstance(m, DataReply)
                                              and m.oid == oid))

        # Two-phase commit across the sites holding written primaries.
        participants = sorted({catalog.primary_site(oid)
                               for oid in txn.write_set
                               if catalog.primary_site(oid) != txn.site})
        if participants:
            by_site = {p: [] for p in participants}
            for oid in txn.write_set:
                home = catalog.primary_site(oid)
                if home != txn.site:
                    by_site[home].append(oid)
            if not comms.recovery:
                if hooks is not None:
                    hooks.two_pc(kernel.now, txn, "prepare",
                                 participants)
                for participant in participants:
                    site.send(participant,
                              Prepare(target=COMMIT_SERVICE,
                                      sender_site=site.site_id, txn=txn,
                                      oids=tuple(by_site[participant]),
                                      reply_to=reply.address))
                for __ in participants:
                    yield reply.receive()  # Vote (all yes in this model)
                prepared = list(participants)
                decided_commit = True
                if hooks is not None:
                    hooks.two_pc(kernel.now, txn, "decide",
                                 participants, True)
                for participant in participants:
                    site.send(participant,
                              Decide(target=COMMIT_SERVICE,
                                     sender_site=site.site_id, txn=txn,
                                     commit=True,
                                     oids=tuple(by_site[participant]),
                                     reply_to=reply.address))
                for __ in participants:
                    yield reply.receive()  # Ack
                prepared = []
                if hooks is not None:
                    hooks.two_pc(kernel.now, txn, "done", participants)
            else:
                tpc = TwoPhaseCommit(txn.tid, participants)
                tpc.start()
                if hooks is not None:
                    hooks.two_pc(kernel.now, txn, "prepare",
                                 participants)
                votes = yield from comms.gather(
                    participants,
                    lambda dst: Prepare(target=COMMIT_SERVICE,
                                        sender_site=site.site_id,
                                        txn=txn,
                                        oids=tuple(by_site[dst]),
                                        reply_to=reply.address),
                    classify=lambda m: (m.sender_site
                                        if isinstance(m, Vote)
                                        and m.txn_tid == txn.tid
                                        else None))
                for participant in participants:
                    tpc.record_vote(participant,
                                    votes[participant].commit)
                prepared = list(participants)
                decided_commit = tpc.decision_commit
                if hooks is not None:
                    hooks.two_pc(kernel.now, txn, "decide",
                                 participants, decided_commit)
                yield from comms.gather(
                    participants,
                    lambda dst: Decide(target=COMMIT_SERVICE,
                                       sender_site=site.site_id,
                                       txn=txn, commit=decided_commit,
                                       oids=tuple(by_site[dst]),
                                       reply_to=reply.address),
                    classify=lambda m: (m.sender_site
                                        if isinstance(m, Ack)
                                        and m.tag == f"decided-{txn.tid}"
                                        else None))
                for participant in participants:
                    tpc.record_ack(participant)
                prepared = []
                if hooks is not None:
                    hooks.two_pc(kernel.now, txn, "done", participants)
        if costs.commit_cpu > 0:
            yield site.cpu.use(costs.commit_cpu)
        for manager in manager_sites:
            if comms.recovery:
                _spawn_release_courier(site, manager, txn, policy)
            else:
                site.send(manager,
                          ReleaseAndDeregister(target=CEILING_SERVICE,
                                               sender_site=site.site_id,
                                               txn=txn))
        txn.mark_committed(kernel.now)
        if hooks is not None:
            hooks.txn_commit(kernel.now, txn)
    except TransactionAbort:
        # Resolve any in-doubt participants, then free the locks.  If
        # the decision was already commit when the abort struck (a lost
        # Decide-ack), participants must still learn *commit* — the
        # transaction scores as missed, but 2PC atomicity holds.
        if comms.recovery:
            for participant in prepared:
                _spawn_decide_courier(site, participant, txn,
                                      decided_commit,
                                      tuple(by_site.get(participant,
                                                        ())),
                                      policy)
            for manager in manager_sites:
                _spawn_abort_courier(site, manager, txn, policy)
        else:
            for participant in prepared:
                site.send(participant,
                          Decide(target=COMMIT_SERVICE,
                                 sender_site=site.site_id, txn=txn,
                                 commit=False, oids=(),
                                 reply_to=reply.address))
            for manager in manager_sites:
                site.send(manager, AbortTxn(target=CEILING_SERVICE,
                                            sender_site=site.site_id,
                                            txn=txn))
        txn.mark_missed(kernel.now)
        if hooks is not None:
            hooks.txn_miss(kernel.now, txn, "deadline")
    finally:
        timer.cancel()
        reply.close()
        on_done(txn)


# ----------------------------------------------------------------------
# cleanup couriers (recovery mode)
# ----------------------------------------------------------------------
def _spawn_release_courier(site: Site, manager: int, txn: Transaction,
                           policy: RecoveryPolicy) -> None:
    tag = f"released-{txn.tid}"
    body = courier(
        site, manager,
        lambda addr: ReleaseAndDeregister(
            target=CEILING_SERVICE, sender_site=site.site_id,
            txn=txn, reply_to=addr),
        policy, f"release-{txn.tid}-{manager}",
        match=lambda m: (isinstance(m, Ack) and m.tag == tag
                         and m.sender_site == manager))
    site.adopt(site.kernel.spawn(
        body, f"release-courier-{txn.tid}-{manager}",
        priority=float("inf")))


def _spawn_abort_courier(site: Site, manager: int, txn: Transaction,
                         policy: RecoveryPolicy) -> None:
    tag = f"aborted-{txn.tid}"
    body = courier(
        site, manager,
        lambda addr: AbortTxn(target=CEILING_SERVICE,
                              sender_site=site.site_id, txn=txn,
                              reply_to=addr),
        policy, f"abort-{txn.tid}-{manager}",
        match=lambda m: (isinstance(m, Ack) and m.tag == tag
                         and m.sender_site == manager))
    site.adopt(site.kernel.spawn(
        body, f"abort-courier-{txn.tid}-{manager}",
        priority=float("inf")))


def _spawn_decide_courier(site: Site, participant: int,
                          txn: Transaction, commit: bool,
                          oids: tuple,
                          policy: RecoveryPolicy) -> None:
    tag = f"decided-{txn.tid}"
    body = courier(
        site, participant,
        lambda addr: Decide(target=COMMIT_SERVICE,
                            sender_site=site.site_id, txn=txn,
                            commit=commit, oids=oids, reply_to=addr),
        policy, f"decide-{txn.tid}-{participant}",
        match=lambda m: isinstance(m, Ack) and m.tag == tag)
    site.adopt(site.kernel.spawn(
        body, f"decide-courier-{txn.tid}-{participant}",
        priority=float("inf")))
