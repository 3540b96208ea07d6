"""Tracer unit behaviour: ring buffer, typed events, activation."""

import pytest

from repro.kernel import Kernel
from repro.kernel.syscalls import Delay
from repro.trace import EVENT_KINDS, Tracer, tracing
from tests.conftest import observers


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    assert observers(Tracer) == []
    yield
    assert observers(Tracer) == []


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------
def test_emit_appends_typed_events():
    tracer = Tracer()
    tracer.emit(1.5, "txn_start", site=0, tid=7, priority=-3.0)
    assert len(tracer) == 1
    event = tracer.events[0]
    assert event.t == 1.5
    assert event.kind == "txn_start"
    assert event.site == 0
    assert event.tid == 7
    assert event.data == {"priority": -3.0}
    assert tracer.dropped == 0


def test_ring_buffer_drops_oldest_and_reports():
    tracer = Tracer(capacity=3)
    for k in range(5):
        tracer.emit(float(k), "txn_start", tid=k)
    assert len(tracer.events) == 3
    assert tracer.emitted == 5
    assert tracer.dropped == 2
    assert [event.tid for event in tracer.events] == [2, 3, 4]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


# ----------------------------------------------------------------------
# typed emit surface stays inside the documented schema
# ----------------------------------------------------------------------
def test_typed_methods_emit_registered_kinds():
    class FakeTxn:
        tid = 3
        site = 1
        priority = -5.0
        deadline = 100.0
        restarts = 0
        operations = [(1, "r")]

    class FakeMsg:
        txn = None
        origin_tid = 3
        target = "replica"
        sender_site = 0

    class FakeRequest:
        txn = FakeTxn()
        oid = 9
        mode = "W"

    class FakeCpu:
        name = "cpu-0"

    class FakeProtocol:
        active = {3: FakeRequest.txn}

    tracer = Tracer()
    txn = FakeRequest.txn
    cc = None  # the tracer asks a protocol only for ceiling blockers
    tracer.txn_start(0.0, txn)
    tracer.txn_commit(1.0, txn)
    tracer.txn_miss(1.0, txn, reason="deadline")
    tracer.txn_restart(1.0, txn)
    tracer.txn_abort(1.0, txn, reason="crash")
    tracer.lock_request(2.0, cc, txn, 9, "R")
    tracer.lock_grant(2.0, cc, txn, 9, "R", None)
    tracer.lock_block(2.0, cc, FakeRequest(), "direct", [txn])
    tracer.lock_release(3.0, cc, txn, [9])
    tracer.lock_release(3.0, cc, txn, [])      # nothing freed: no event
    tracer.lock_withdraw(3.0, cc, FakeRequest())
    tracer.priority_inherit(3.0, txn, -1.0)
    tracer.priority_restore(3.5, txn)
    tracer.ceiling_raise(4.0, FakeProtocol(), txn)
    tracer.ceiling_lower(4.0, FakeProtocol(), txn)
    tracer.cpu_dispatch(4.5, FakeCpu(), None)
    tracer.cpu_preempt(4.5, FakeCpu(), None)
    tracer.msg_send(5.0, 1, FakeMsg(), 2)
    tracer.msg_deliver(5.5, 1, FakeMsg(), lag=0.5)
    tracer.msg_drop(5.5, 1, FakeMsg(), reason="injected")
    tracer.msg_retry(6.0, 0, 1, 3, "LockRequest")
    tracer.courier_retry(6.0, 0, 1, "release-3-1")
    tracer.msg_undeliverable(6.0, 1, FakeMsg())
    tracer.rpc_begin(7.0, 0, 1, 3, "LockRequest")
    tracer.rpc_end(7.5, 0, 1, 3, "LockRequest")
    tracer.two_pc(8.0, txn, "prepare", [1, 2])
    tracer.two_pc(8.5, txn, "decide", [1, 2], commit=True)
    tracer.two_pc(9.0, txn, "done", [1, 2])
    tracer.site_crash(10.0, 1, victims=2)
    tracer.site_recover(12.0, 1)
    assert tracer.emitted == 29
    for event in tracer.events:
        assert event.kind in EVENT_KINDS, event.kind


def test_lock_block_snapshots_holders_as_plain_data():
    class Holder:
        tid = 11
        priority = -9.0

    class Waiter:
        tid = 12
        site = 0
        priority = -2.0

    class Request:
        txn = Waiter()
        oid = 5
        mode = "W"

    class Protocol:
        @staticmethod
        def ceiling_blockers(request):
            return [Holder()]

    tracer = Tracer()
    # No direct conflict: the protocol names the barrier's holders.
    tracer.lock_block(1.0, Protocol(), Request(), "ceiling", [])
    data = tracer.events[0].data
    assert data["holders"] == [[11, -9.0]]
    assert data["waiter_priority"] == -2.0
    assert data["cause"] == "ceiling"


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------
def _body():
    yield Delay(1.0)


def test_install_and_context_manager():
    assert observers(Tracer) == []
    tracer = Tracer()
    with tracing(tracer) as active:
        assert active is tracer
        assert observers(Tracer) == [tracer]
        inner = Tracer()
        with tracing(inner):
            # An inner tracer shadows the outer one.
            assert observers(Tracer) == [inner]
        assert observers(Tracer) == [tracer]
    assert observers(Tracer) == []


def test_a_kernel_keeps_the_observers_it_was_built_under(unobserved):
    with tracing() as tracer:
        kernel = Kernel()
    late = Kernel()
    for victim in (kernel, late):
        victim.spawn(_body(), "worker")
        victim.run()
    assert late.hooks is None
    assert [event.kind for event in tracer.events] == ["spawn",
                                                       "terminate"]


def test_untraced_kernel_emits_nothing(unobserved):
    tracer = Tracer()
    kernel = Kernel()
    assert kernel.hooks is None
    with tracing(tracer):
        # Too late: the kernel sampled the activation when it was built.
        kernel.spawn(_body(), "worker")
        kernel.run()
    assert tracer.emitted == 0
