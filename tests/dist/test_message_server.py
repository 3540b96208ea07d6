"""Message Server and service registry."""

import pytest

from repro.dist.message import Ack
from repro.dist.message_server import MessageServer, ServiceRegistry
from repro.kernel import Kernel, Port


def test_registry_register_lookup_unregister():
    registry = ServiceRegistry()
    kernel = Kernel()
    port = Port(kernel, "svc")
    registry.register("svc", port)
    assert registry.lookup("svc") is port
    assert "svc" in registry
    registry.unregister("svc")
    assert registry.lookup("svc") is None
    registry.unregister("svc")  # idempotent


def test_registry_duplicate_name_rejected():
    registry = ServiceRegistry()
    kernel = Kernel()
    registry.register("svc", Port(kernel, "a"))
    with pytest.raises(ValueError, match="already registered"):
        registry.register("svc", Port(kernel, "b"))


def test_ms_forwards_to_registered_service():
    kernel = Kernel()
    registry = ServiceRegistry()
    service_port = Port(kernel, "svc")
    registry.register("svc", service_port)
    server = MessageServer(kernel, site_id=0, registry=registry)
    got = []

    def service():
        message = yield service_port.receive()
        got.append(message)

    kernel.spawn(service(), "svc")
    message = Ack(target="svc", sender_site=1, tag="hello")
    server.inbox.send(message)
    kernel.run()
    assert got == [message]
    assert server.forwarded == 1


def test_ms_drops_undeliverable_and_counts():
    kernel = Kernel()
    registry = ServiceRegistry()
    server = MessageServer(kernel, site_id=0, registry=registry)
    server.inbox.send(Ack(target="ghost", sender_site=1))
    kernel.run(until=1.0)
    assert server.dropped == 1
    assert registry.undeliverable == 1


def test_ms_rejects_non_message_payloads():
    kernel = Kernel()
    registry = ServiceRegistry()
    server = MessageServer(kernel, site_id=0, registry=registry)
    server.inbox.send("not a message")
    with pytest.raises(TypeError, match="non-message"):
        kernel.run(until=1.0)


def test_ms_keeps_serving_after_drop():
    kernel = Kernel()
    registry = ServiceRegistry()
    service_port = Port(kernel, "svc")
    registry.register("svc", service_port)
    server = MessageServer(kernel, site_id=0, registry=registry)
    got = []

    def service():
        message = yield service_port.receive()
        got.append(message.tag)

    kernel.spawn(service(), "svc")
    server.inbox.send(Ack(target="ghost", sender_site=1, tag="lost"))
    server.inbox.send(Ack(target="svc", sender_site=1, tag="found"))
    kernel.run()
    assert got == ["found"]
    assert server.dropped == 1
