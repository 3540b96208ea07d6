"""Request/reply transports under injected faults.

Deterministic scenarios only: time-bounded partitions (no random
draws) make the retry timeline exactly predictable.
"""

import pytest

from repro.core.monitor import DegradationStats
from repro.dist.comms import (DirectComms, RecoveryPolicy,
                              ReliableComms, ack, courier)
from repro.dist.message import Ack, RegisterTxn
from repro.dist.network import Network
from repro.dist.site import Site
from repro.faults import FaultInjector, FaultPlan, LinkPartition
from repro.kernel import Delay, Kernel
from repro.telemetry import metering


def build(kernel, plan=None, delay=1.0, n=2):
    network = Network(kernel, n, delay)
    sites = [Site(kernel, site_id, 10, network) for site_id in range(n)]
    stats = DegradationStats()
    if plan is not None:
        network.attach_injector(FaultInjector(kernel, plan, n, stats))
    return network, sites, stats


def policy_for(stats, timeout=4.0, attempts=5):
    return RecoveryPolicy(timeout=timeout, backoff=2.0,
                          cap=8 * timeout, attempts=attempts,
                          stats=stats)


def echo_server(site, tag="ok"):
    """Replies one Ack(tag) to every request's reply_to."""
    port = site.register_service("svc")
    while True:
        message = yield port.receive()
        reply_site, reply_name = message.reply_to
        site.send(reply_site, Ack(target=reply_name,
                                  sender_site=site.site_id, tag=tag))


def acking_server(site):
    """Confirms every message the way the real servers do."""
    port = site.register_service("svc")
    while True:
        ack(site, (yield port.receive()))


def ask(kernel, sites, comms_factory, results, match_tag="ok"):
    def body():
        reply = sites[0].make_reply_port("client")
        comms = comms_factory(sites[0], reply)
        try:
            response = yield from comms.request(
                1,
                lambda: RegisterTxn(target="svc", sender_site=0,
                                    txn=None, reply_to=reply.address),
                match=lambda m: (isinstance(m, Ack)
                                 and m.tag == match_tag))
            results.append((kernel.now, response.tag))
        finally:
            reply.close()

    kernel.spawn(body(), "client")


# ----------------------------------------------------------------------
# DirectComms: the legacy exchange
# ----------------------------------------------------------------------
def test_direct_comms_is_a_single_send_receive(kernel):
    network, sites, __ = build(kernel)
    kernel.spawn(echo_server(sites[1]), "server")
    results = []
    ask(kernel, sites, lambda site, reply: DirectComms(site, reply),
        results)
    kernel.run()
    assert results == [(2.0, "ok")]          # one hop out, one back
    assert network.messages_sent == 2


# ----------------------------------------------------------------------
# ReliableComms: retry through a healing partition
# ----------------------------------------------------------------------
def test_reliable_request_retries_until_the_partition_heals(kernel):
    # Requests 0->1 vanish until t=10; replies 1->0 always pass.
    plan = FaultPlan(partitions=(
        LinkPartition(src=0, dst=1, start=0.0, until=10.0),))
    network, sites, stats = build(kernel, plan)
    kernel.spawn(echo_server(sites[1]), "server")
    results = []
    ask(kernel, sites,
        lambda site, reply: ReliableComms(site, reply,
                                          policy_for(stats)),
        results)
    kernel.run()
    # Send@0 dropped; timeout@4, resend@4 dropped; timeout@12 (patience
    # doubled to 8), resend@12 delivered@13, ack back@14.
    assert results == [(14.0, "ok")]
    assert stats.rpc_timeouts == 2
    assert stats.rpc_retries == 2


def test_reliable_request_discards_stale_replies(kernel):
    def noisy_server(site):
        port = site.register_service("svc")
        message = yield port.receive()
        reply_site, reply_name = message.reply_to
        # A late duplicate of some earlier exchange arrives first...
        site.send(reply_site, Ack(target=reply_name,
                                  sender_site=site.site_id,
                                  tag="stale"))
        # ...then the real reply.
        site.send(reply_site, Ack(target=reply_name,
                                  sender_site=site.site_id, tag="ok"))

    network, sites, stats = build(kernel)
    kernel.spawn(noisy_server(sites[1]), "server")
    results = []
    ask(kernel, sites,
        lambda site, reply: ReliableComms(site, reply,
                                          policy_for(stats)),
        results)
    kernel.run()
    assert results == [(2.0, "ok")]
    assert stats.stale_replies == 1
    assert stats.rpc_retries == 0


def test_interim_ack_stretches_patience_instead_of_resending(kernel):
    def queueing_server(site):
        port = site.register_service("svc")
        message = yield port.receive()
        reply_site, reply_name = message.reply_to
        site.send(reply_site, Ack(target=reply_name,
                                  sender_site=site.site_id,
                                  tag="queued"))
        yield Delay(20.0)          # far beyond the base timeout of 4
        site.send(reply_site, Ack(target=reply_name,
                                  sender_site=site.site_id, tag="ok"))

    network, sites, stats = build(kernel)
    kernel.spawn(queueing_server(sites[1]), "server")
    results = []

    def body():
        reply = sites[0].make_reply_port("client")
        comms = ReliableComms(sites[0], reply, policy_for(stats))
        response = yield from comms.request(
            1,
            lambda: RegisterTxn(target="svc", sender_site=0, txn=None,
                                reply_to=reply.address),
            match=lambda m: m.tag == "ok",
            interim=lambda m: m.tag == "queued")
        results.append((kernel.now, response.tag))
        reply.close()

    kernel.spawn(body(), "client")
    kernel.run()
    assert results == [(22.0, "ok")]
    assert stats.rpc_retries == 0          # waited, did not re-send
    assert network.messages_sent == 3      # request + queued + grant


# ----------------------------------------------------------------------
# gather: several destinations, every reply collected
# ----------------------------------------------------------------------
def counting_server(site, seen, first=None):
    """Acks every request (tag "ok"), counting them in ``seen``; the
    first request is answered with the ``first`` (tag, sender_site)
    acks instead."""
    port = site.register_service("svc")
    replies = first or [("ok", site.site_id)]
    while True:
        message = yield port.receive()
        seen.append(site.site_id)
        reply_site, reply_name = message.reply_to
        for tag, sender in replies:
            site.send(reply_site, Ack(target=reply_name,
                                      sender_site=sender, tag=tag))
        replies = [("ok", site.site_id)]


def gather_from(kernel, sites, comms_factory, dsts, results):
    def body():
        reply = sites[0].make_reply_port("client")
        comms = comms_factory(sites[0], reply)
        got = yield from comms.gather(
            dsts,
            lambda dst: RegisterTxn(target="svc", sender_site=0,
                                    txn=None, reply_to=reply.address),
            match=lambda m: isinstance(m, Ack) and m.tag == "ok")
        results.append((kernel.now, {dst: m.sender_site
                                     for dst, m in got.items()}))
        reply.close()

    kernel.spawn(body(), "client")


def test_reliable_gather_re_asks_only_the_silent_destination(kernel):
    # Requests 0->2 vanish until t=10; site 1 answers the first copy.
    plan = FaultPlan(partitions=(
        LinkPartition(src=0, dst=2, start=0.0, until=10.0),))
    __, sites, stats = build(kernel, plan, n=3)
    seen = []
    for site in sites[1:]:
        kernel.spawn(counting_server(site, seen), f"server-{site.site_id}")
    results = []
    gather_from(kernel, sites,
                lambda site, reply: ReliableComms(site, reply,
                                                  policy_for(stats)),
                [1, 2], results)
    kernel.run()
    # Site 1 replies @2; the receive for site 2 times out @6 and only
    # site 2 is re-asked (dropped); patience doubles, @14 the third
    # copy gets through (@15) and its ack lands @16.
    assert results == [(16.0, {1: 1, 2: 2})]
    assert seen == [1, 2]                  # site 1 was asked once
    assert stats.rpc_timeouts == 2
    assert stats.rpc_retries == 2          # one silent site, twice
    assert stats.stale_replies == 0


def test_reliable_gather_counts_stale_and_foreign_replies(kernel):
    # Site 2 misses the first copy, so the gather is still open while
    # site 1's four replies arrive: a wrong tag, an ack from a site
    # nobody asked, the real one, and a duplicate of the real one.
    plan = FaultPlan(partitions=(
        LinkPartition(src=0, dst=2, start=0.0, until=3.0),))
    __, sites, stats = build(kernel, plan, n=3)
    seen = []
    kernel.spawn(counting_server(
        sites[1], seen,
        first=[("other", 1), ("ok", 7), ("ok", 1), ("ok", 1)]), "s1")
    kernel.spawn(counting_server(sites[2], seen), "s2")
    results = []
    gather_from(kernel, sites,
                lambda site, reply: ReliableComms(site, reply,
                                                  policy_for(stats)),
                [1, 2], results)
    kernel.run()
    assert results == [(8.0, {1: 1, 2: 2})]   # timeout @6, re-ask, +2
    assert stats.stale_replies == 3
    assert stats.rpc_retries == 1
    assert seen == [1, 2]


def test_reliable_gather_patience_escalates_to_the_cap(kernel):
    plan = FaultPlan(partitions=(
        LinkPartition(src=0, dst=1, start=0.0, until=70.0),))
    __, sites, stats = build(kernel, plan)
    seen = []
    kernel.spawn(counting_server(sites[1], seen), "server")
    results = []
    gather_from(kernel, sites,
                lambda site, reply: ReliableComms(site, reply,
                                                  policy_for(stats)),
                [1], results)
    kernel.run()
    # Patience 4, 8, 16, 32, then capped at 32 (not 64): sends @0, 4,
    # 12, 28, 60 are lost, the one @92 is answered @94.
    assert results == [(94.0, {1: 1})]
    assert stats.rpc_timeouts == 5
    assert seen == [1]


def test_direct_gather_is_n_sends_and_n_receives_with_no_timer(kernel):
    network, sites, __ = build(kernel, n=3)
    seen = []
    for site in sites[1:]:
        kernel.spawn(counting_server(site, seen), f"server-{site.site_id}")
    results, timeouts = [], []

    def direct(site, reply):
        real = reply.receive

        def receive(timeout=None):
            timeouts.append(timeout)
            return real(timeout=timeout)

        reply.receive = receive
        return DirectComms(site, reply)

    gather_from(kernel, sites, direct, [1, 2], results)
    kernel.run()
    assert results == [(2.0, {1: 1, 2: 2})]
    assert timeouts == [None, None]
    assert network.messages_sent == 4      # two out, two back


# ----------------------------------------------------------------------
# post: one-way
# ----------------------------------------------------------------------
def test_direct_post_is_the_sites_own_send(kernel):
    __, sites, ___ = build(kernel)
    assert DirectComms(sites[0], None).post == sites[0].send


def test_reliable_post_hands_the_message_to_a_resident_courier(kernel):
    plan = FaultPlan(partitions=(
        LinkPartition(src=0, dst=1, start=0.0, until=6.0),))
    network, sites, stats = build(kernel, plan)
    kernel.spawn(acking_server(sites[1]), "server")
    comms = ReliableComms(sites[0], None, policy_for(stats))
    comms.post(1, RegisterTxn(target="svc", sender_site=0, txn=None))
    (process,) = sites[0].resident         # a crash would take it
    kernel.run()
    assert process.terminated
    assert stats.courier_retries == 2 and stats.courier_failures == 0
    assert sites[0].registry.lookup("svc") is None
    assert not sites[0].registry.undeliverable


# ----------------------------------------------------------------------
# couriers: bounded at-least-once delivery
# ----------------------------------------------------------------------
def run_courier(kernel, sites, stats, attempts=3):
    outcome = []

    def body():
        delivered = yield from courier(
            sites[0], 1,
            RegisterTxn(target="svc", sender_site=0, txn=None),
            policy_for(stats, attempts=attempts))
        outcome.append(delivered)

    kernel.spawn(body(), "courier")
    return outcome


def test_courier_delivers_after_the_partition_heals(kernel):
    plan = FaultPlan(partitions=(
        LinkPartition(src=0, dst=1, start=0.0, until=6.0),))
    __, sites, stats = build(kernel, plan)
    kernel.spawn(acking_server(sites[1]), "server")
    outcome = run_courier(kernel, sites, stats)
    kernel.run()
    assert outcome == [True]
    assert stats.courier_retries == 2      # attempts 2 and 3
    assert stats.courier_failures == 0


def test_courier_gives_up_after_bounded_attempts(kernel):
    plan = FaultPlan(partitions=(
        LinkPartition(src=0, dst=1, start=0.0, until=10_000.0),))
    __, sites, stats = build(kernel, plan)
    kernel.spawn(acking_server(sites[1]), "server")
    outcome = run_courier(kernel, sites, stats, attempts=3)
    kernel.run()
    assert outcome == [False]
    assert stats.courier_failures == 1
    assert stats.courier_retries == 2
    assert stats.rpc_timeouts == 3         # every attempt timed out


def test_courier_ignores_an_ack_that_is_not_its_own():
    def confused_server(site):
        port = site.register_service("svc")
        message = yield port.receive()
        reply_site, reply_name = message.reply_to
        site.send(reply_site, Ack(target=reply_name,
                                  sender_site=site.site_id,
                                  tag="released-9"))
        ack(site, message)

    with metering() as registry:
        kernel = Kernel(seed=1234)     # samples the activation here
        __, sites, stats = build(kernel)
        kernel.spawn(confused_server(sites[1]), "server")
        outcome = run_courier(kernel, sites, stats)
        kernel.run()
    assert outcome == [True]
    assert stats.stale_replies == 1
    assert stats.courier_retries == 0
    assert registry.counter("comms.stale_replies").value == 1


def test_courier_outcomes_reach_the_metrics():
    with metering() as registry:
        kernel = Kernel(seed=1234)
        plan = FaultPlan(partitions=(
            LinkPartition(src=0, dst=1, start=0.0, until=10_000.0),))
        __, sites, stats = build(kernel, plan)
        outcome = run_courier(kernel, sites, stats, attempts=2)
        kernel.run()
    assert outcome == [False]
    assert registry.counter("comms.courier_failures").value == 1
    assert registry.counter("comms.courier_retries").value == 1
    assert registry.counter("comms.timeouts").value == 2


# ----------------------------------------------------------------------
# RecoveryPolicy
# ----------------------------------------------------------------------
def test_policy_escalation_is_capped():
    policy = RecoveryPolicy(timeout=4.0, backoff=2.0, cap=10.0,
                            attempts=3, stats=DegradationStats())
    assert policy.escalate(4.0) == 8.0
    assert policy.escalate(8.0) == 10.0
    assert policy.escalate(10.0) == 10.0


def test_policy_rejects_nonsense_timings():
    stats = DegradationStats()
    with pytest.raises(ValueError):
        RecoveryPolicy(timeout=0.0, backoff=2.0, cap=1.0, attempts=3,
                       stats=stats)
    with pytest.raises(ValueError):
        RecoveryPolicy(timeout=4.0, backoff=2.0, cap=2.0, attempts=3,
                       stats=stats)
    with pytest.raises(ValueError):
        RecoveryPolicy(timeout=4.0, backoff=0.9, cap=8.0, attempts=3,
                       stats=stats)
    with pytest.raises(ValueError):
        RecoveryPolicy(timeout=4.0, backoff=2.0, cap=8.0, attempts=0,
                       stats=stats)


def test_policy_from_plan_uses_resolved_timings():
    stats = DegradationStats()
    plan = FaultPlan(loss_rate=0.1, rpc_backoff=1.5,
                     courier_attempts=7)
    policy = RecoveryPolicy.from_plan(plan, comm_delay=2.0, stats=stats)
    assert policy.timeout == plan.resolved_rpc_timeout(2.0)
    assert policy.cap == plan.resolved_rpc_cap(2.0)
    assert policy.backoff == 1.5
    assert policy.attempts == 7
    assert policy.stats is stats
