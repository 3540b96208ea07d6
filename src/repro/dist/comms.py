"""The transport between a transaction manager and the network.

Whether the network can lose, repeat or swallow a message is a fact
about the run (``FaultPlan.needs_recovery``), so it lives here and
nowhere else: the system picks one of two transports and hands it to
the TMs, which are written once against three verbs.

- ``request(dst, make_message, match, interim)`` — ask one site, return
  its reply.
- ``gather(dsts, make_message, match)`` — ask several sites, return
  ``{site: reply}`` once every one has answered (2PC's two rounds).
- ``post(dst, message)`` — one-way: the caller does not wait (lock
  release, abort notices, in-doubt decisions, replica propagation).

``match=None`` means "the reply is the :class:`Ack` of what was sent":
its tag is the message's ``ack_tag`` and it comes from ``dst``.

:class:`DirectComms` assumes every message arrives exactly once (no
fault plan, or one that only re-times deliveries): a send, a blocking
receive, no timers, no RNG, ``match`` trusted rather than checked, and
``post`` *is* the site's own ``send``.  :class:`ReliableComms` is the
paper's "time-out mechanism will unblock the sender", grown into a
protocol: every receive carries a timeout; on expiry the destinations
still silent are re-asked with exponentially escalating patience
(bounded by a cap); replies that do not match (late duplicates,
re-granted locks) are discarded and counted.  Requests retry without
an attempt bound — the transaction's deadline timer is the liveness
backstop — while ``post`` hands the message to a bounded-attempt
:func:`courier` process so nothing outlives the run.

Servers are deduplicating and idempotent and confirm receipt with
:func:`ack`, so at-least-once delivery composes into effectively
exactly-once protocol state.
"""

from __future__ import annotations

import dataclasses

from ..kernel.errors import Timeout
from .message import Ack


def ack(site, message) -> None:
    """Server side of the contract: confirm ``message`` to a sender
    that asked (``reply_to`` set) with the tag the message names."""
    if message.reply_to is None:
        return
    reply_site, reply_name = message.reply_to
    site.send(reply_site, Ack(target=reply_name,
                              sender_site=site.site_id,
                              tag=message.ack_tag))


def _acks(response, message, dst: int) -> bool:
    return (isinstance(response, Ack) and response.tag == message.ack_tag
            and response.sender_site == dst)


class RecoveryPolicy:
    """Timeout/retry knobs resolved from a FaultPlan, plus the
    degradation ledger the helpers count into."""

    def __init__(self, timeout: float, backoff: float, cap: float,
                 attempts: int, stats):
        if timeout <= 0 or cap < timeout or backoff < 1.0:
            raise ValueError("invalid recovery policy timings")
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.timeout = timeout
        self.backoff = backoff
        self.cap = cap
        self.attempts = attempts
        self.stats = stats

    @classmethod
    def from_plan(cls, plan, comm_delay: float,
                  stats) -> "RecoveryPolicy":
        return cls(timeout=plan.resolved_rpc_timeout(comm_delay),
                   backoff=plan.rpc_backoff,
                   cap=plan.resolved_rpc_cap(comm_delay),
                   attempts=plan.courier_attempts, stats=stats)

    def escalate(self, timeout: float) -> float:
        return min(timeout * self.backoff, self.cap)


class DirectComms:
    """Blocking exchanges over a network that delivers exactly once."""

    #: No timeouts, so a queued request needs no interim ``LockQueued``.
    wants_interim = False

    def __init__(self, site, reply, tid=None):
        self.site = site
        self.reply = reply
        self.tid = tid
        #: One-way delivery needs no custody here: ``post`` is the
        #: site's own send, not a frame around it.
        self.post = site.send

    def request(self, dst: int, make_message, match=None, interim=None):
        """Generator: send once, return the next reply (``match`` is
        trusted, not checked: with exactly-once delivery the next
        message *is* the reply)."""
        message = make_message()
        kernel = self.site.kernel
        hooks = kernel.hooks
        if hooks is not None:
            hooks.rpc_begin(kernel.now, self.site.site_id, dst,
                            self.tid, type(message).__name__)
        self.site.send(dst, message)
        response = yield self.reply.receive()
        if hooks is not None:
            hooks.rpc_end(kernel.now, self.site.site_id, dst, self.tid,
                          type(message).__name__)
        return response

    def gather(self, dsts, make_message, match=None):
        """Generator: one send per destination, then one receive per
        destination; replies are keyed by the site that sent them."""
        for dst in dsts:
            self.site.send(dst, make_message(dst))
        got = {}
        for __ in dsts:
            response = yield self.reply.receive()
            got[response.sender_site] = response
        return got


class ReliableComms:
    """Timeout + exponential-backoff retry exchanges."""

    #: A silent manager is indistinguishable from a lost request, so a
    #: request that may queue asks for an interim ``LockQueued``.
    wants_interim = True

    def __init__(self, site, reply, policy: RecoveryPolicy, tid=None):
        self.site = site
        self.reply = reply
        self.policy = policy
        self.tid = tid

    # ------------------------------------------------------------------
    def request(self, dst: int, make_message, match=None, interim=None):
        """Generator: at-least-once request, first matching reply wins.

        ``match(message)`` recognises the awaited reply.  ``interim``
        (optional) recognises a server acknowledgement that the real
        reply will follow unsolicited (a LockQueued): patience then
        stretches to the cap instead of re-sending at the base timeout,
        but a lost grant is still recovered by an eventual re-request.
        Unmatched messages are stale (late duplicates of an earlier
        exchange on this port) and are dropped and counted.
        """
        policy = self.policy
        stats = policy.stats
        timeout = policy.timeout
        kernel = self.site.kernel
        hooks = kernel.hooks
        label = None
        while True:
            message = make_message()
            if hooks is not None and label is None:
                label = type(message).__name__
                hooks.rpc_begin(kernel.now, self.site.site_id, dst,
                                self.tid, label)
            self.site.send(dst, message)
            patience = timeout
            try:
                while True:
                    response = yield self.reply.receive(timeout=patience)
                    if (_acks(response, message, dst) if match is None
                            else match(response)):
                        if hooks is not None:
                            hooks.rpc_end(kernel.now, self.site.site_id,
                                          dst, self.tid, label)
                        return response
                    if interim is not None and interim(response):
                        patience = policy.cap
                        continue
                    stats.stale_replies += 1
                    if hooks is not None:
                        hooks.rpc_stale(kernel.now)
            except Timeout:
                stats.rpc_timeouts += 1
                stats.rpc_retries += 1
                if hooks is not None:
                    hooks.rpc_timeout(kernel.now)
                    hooks.msg_retry(kernel.now, self.site.site_id, dst,
                                    self.tid, label)
                timeout = policy.escalate(timeout)

    # ------------------------------------------------------------------
    def gather(self, dsts, make_message, match=None):
        """Generator: one request per destination, all replies
        collected; only the destinations still missing after a timeout
        are re-asked.  A reply from a site that is not (or no longer)
        awaited, or that fails ``match``, is stale."""
        policy = self.policy
        stats = policy.stats
        timeout = policy.timeout
        kernel = self.site.kernel
        hooks = kernel.hooks
        label = None
        pending = {dst: make_message(dst) for dst in dsts}
        got = {}
        while pending:
            for dst, message in pending.items():
                if hooks is not None and label is None:
                    label = "gather:" + type(message).__name__
                    hooks.rpc_begin(kernel.now, self.site.site_id, -1,
                                    self.tid, label)
                self.site.send(dst, message)
            try:
                while pending:
                    response = yield self.reply.receive(timeout=timeout)
                    origin = response.sender_site
                    if origin in pending and (
                            _acks(response, pending[origin], origin)
                            if match is None else match(response)):
                        got[origin] = response
                        del pending[origin]
                    else:
                        stats.stale_replies += 1
                        if hooks is not None:
                            hooks.rpc_stale(kernel.now)
            except Timeout:
                stats.rpc_timeouts += 1
                stats.rpc_retries += len(pending)
                if hooks is not None:
                    hooks.rpc_timeout(kernel.now)
                    for dst in pending:
                        hooks.msg_retry(kernel.now, self.site.site_id,
                                        dst, self.tid, label)
                timeout = policy.escalate(timeout)
        if hooks is not None and label is not None:
            hooks.rpc_end(kernel.now, self.site.site_id, -1, self.tid,
                          label)
        return got

    # ------------------------------------------------------------------
    def post(self, dst: int, message) -> None:
        """One-way, at-least-once: hand ``message`` to its own courier
        (one per message, so a slow destination never delays the
        sender), resident at the sending site so a crash takes it."""
        site = self.site
        site.adopt(site.kernel.spawn(
            courier(site, dst, message, self.policy),
            f"courier-{message.ack_tag}-{dst}", priority=float("inf")))


def courier(site, dst: int, message, policy: RecoveryPolicy):
    """Generator body: deliver one message at-least-once, then die.

    The message goes out with the courier's private ack port as its
    ``reply_to`` and is confirmed by its own ``ack_tag`` from ``dst``.
    Bounded attempts: a courier must never outlive the run, so after
    ``policy.attempts`` unacknowledged sends it gives up (counted — the
    receiver may still have processed every copy; only the
    *confirmation* failed).
    """
    stats = policy.stats
    label = f"{message.ack_tag}-{dst}"
    reply = site.make_reply_port(label)
    message = dataclasses.replace(message, reply_to=reply.address)
    timeout = policy.timeout
    kernel = site.kernel
    hooks = kernel.hooks
    try:
        for attempt in range(policy.attempts):
            if attempt:
                stats.courier_retries += 1
                if hooks is not None:
                    hooks.courier_retry(kernel.now, site.site_id, dst,
                                        label)
            site.send(dst, message)
            try:
                while True:
                    response = yield reply.receive(timeout=timeout)
                    if _acks(response, message, dst):
                        return True
                    stats.stale_replies += 1
                    if hooks is not None:
                        hooks.rpc_stale(kernel.now)
            except Timeout:
                stats.rpc_timeouts += 1
                if hooks is not None:
                    hooks.rpc_timeout(kernel.now)
            timeout = policy.escalate(timeout)
        stats.courier_failures += 1
        if hooks is not None:
            hooks.courier_failure(kernel.now)
        return False
    finally:
        reply.close()
