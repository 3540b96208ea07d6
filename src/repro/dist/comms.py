"""Request/reply transports for the transaction managers.

Two interchangeable strategies sit between a TM and the network:

- :class:`DirectComms` — the historical exchange: send once, block on
  the reply port forever.  Correct when every message arrives exactly
  once (no fault plan, or a plan that only re-times deliveries), and
  **bit-identical** to the pre-fault code path: same sends, same
  syscalls, no timers, no RNG.
- :class:`ReliableComms` — the paper's "time-out mechanism will
  unblock the sender", grown into a protocol: every receive carries a
  timeout; on expiry the request is re-sent with exponentially
  escalating patience (bounded by a cap); replies that do not match
  the outstanding request (late duplicates, re-granted locks) are
  discarded and counted.  In-flight transaction RPCs retry without an
  attempt bound — the transaction's deadline timer is the liveness
  backstop — while fire-and-forget cleanup (lock release, abort
  notices, replica propagation) is carried by bounded-attempt
  :func:`courier` processes so nothing outlives the run.

Servers are deduplicating and idempotent (see the ceiling manager and
replica applier), so at-least-once delivery composes into effectively
exactly-once protocol state.
"""

from __future__ import annotations

from ..kernel.errors import Timeout


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
    """Legacy blocking exchanges over a transaction's reply port."""

    recovery = False

    def __init__(self, site, reply, tid=None):
        self.site = site
        self.reply = reply
        self.tid = tid

    def request(self, dst: int, make_message, match=None, interim=None):
        """Generator: send once, return the next reply — exactly the
        historical send/receive pair (``match`` is trusted, not
        checked: with exactly-once delivery the next message *is* the
        reply)."""
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


class ReliableComms:
    """Timeout + exponential-backoff retry exchanges."""

    recovery = True

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
                    if match is None or match(response):
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
    def gather(self, dsts, make_message, classify):
        """Generator: one request per destination, all replies
        collected; missing destinations are re-asked after a timeout.

        ``make_message(dst)`` builds each request; ``classify(msg)``
        returns the responding destination (or None for junk).
        Returns ``{dst: reply}``.
        """
        policy = self.policy
        stats = policy.stats
        timeout = policy.timeout
        kernel = self.site.kernel
        hooks = kernel.hooks
        label = None
        pending = list(dsts)
        got = {}
        while pending:
            for dst in pending:
                message = make_message(dst)
                if hooks is not None and label is None:
                    label = "gather:" + type(message).__name__
                    hooks.rpc_begin(kernel.now, self.site.site_id, -1,
                                    self.tid, label)
                self.site.send(dst, message)
            try:
                while pending:
                    response = yield self.reply.receive(timeout=timeout)
                    origin = classify(response)
                    if origin is None or origin not in pending:
                        stats.stale_replies += 1
                        if hooks is not None:
                            hooks.rpc_stale(kernel.now)
                        continue
                    got[origin] = response
                    pending.remove(origin)
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


def courier(site, dst: int, build, policy: RecoveryPolicy,
            label: str, match=None):
    """Generator body: deliver one message at-least-once, then die.

    ``build(reply_address)`` constructs the message with the courier's
    private ack port woven in.  Bounded attempts: a courier must never
    outlive the run, so after ``policy.attempts`` unacknowledged sends
    it gives up (counted — the receiver may still have processed every
    copy; only the *confirmation* failed).  Spawn one per message so a
    slow destination never delays the sender.
    """
    stats = policy.stats
    reply = site.make_reply_port(label)
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
            site.send(dst, build(reply.address))
            try:
                while True:
                    response = yield reply.receive(timeout=timeout)
                    if match is None or match(response):
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
