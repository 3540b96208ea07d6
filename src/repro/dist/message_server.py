"""Per-site Message Server.

"The distributed environment is simulated by the Message Server (MS)
listening on a well-known port for messages from remote sites. ... When
the MS retrieves a message, it ... forwards the message to the proper
servers or TM."

The MS here is a real kernel process: it blocks on the site's well-known
inbox port and forwards each message to the service port named in
``message.target``.  Services (ceiling manager, data server, replica
applier, per-transaction reply ports) register under string names in the
site's registry.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..kernel.kernel import Kernel
from ..kernel.ports import Port
from .message import Message


class ServiceRegistry:
    """Name -> port map for one site."""

    def __init__(self) -> None:
        self._services: Dict[str, Port] = {}
        self.undeliverable = 0
        #: ``lookup(name)`` -> the port registered under ``name``, or
        #: None.  The map's own ``get``: every inter-site message is
        #: resolved here (and every intra-site one in ``Site.send``),
        #: so the lookup is one C call with no Python frame.
        self.lookup: Callable[[str], Optional[Port]] = self._services.get

    def register(self, name: str, port: Port) -> None:
        if name in self._services:
            raise ValueError(f"service {name!r} already registered")
        self._services[name] = port

    def unregister(self, name: str) -> None:
        self._services.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._services


class MessageServer:
    """The MS process plus its well-known inbox."""

    def __init__(self, kernel: Kernel, site_id: int,
                 registry: ServiceRegistry):
        self.kernel = kernel
        self.site_id = site_id
        self.registry = registry
        self.inbox = Port(kernel, name=f"ms-inbox-{site_id}")
        self.forwarded = 0
        self.dropped = 0
        self.process = kernel.spawn(self._loop(), f"ms-{site_id}",
                                    priority=float("inf"))

    def purge(self) -> int:
        """Crash hook: discard every queued-but-unprocessed inbox
        message (volatile memory is lost with the site).  Returns the
        number of messages discarded; they are counted as dropped."""
        discarded = len(self.inbox.drain())
        self.dropped += discarded
        return discarded

    def _loop(self):
        receive = self.inbox.receive()
        lookup = self.registry.lookup
        while True:
            message = yield receive
            if not isinstance(message, Message):
                raise TypeError(f"MS {self.site_id} received non-message "
                                f"{message!r}")
            port = lookup(message.target)
            if port is None:
                # A reply addressed to a transaction that already died
                # (e.g. a grant racing an abort): drop it, count it.
                self.dropped += 1
                self.registry.undeliverable += 1
                hooks = self.kernel.hooks
                if hooks is not None:
                    hooks.msg_undeliverable(self.kernel.now,
                                            self.site_id, message)
                continue
            self.forwarded += 1
            port.send(message)
