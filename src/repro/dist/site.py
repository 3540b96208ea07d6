"""A virtual site: CPU, local database, services, Message Server.

"An instance of the prototyping environment can manage any number of
virtual sites specified by the user."  Each site owns:

- a preemptive-priority CPU (the distributed experiments are
  memory-resident, so there is no I/O device);
- a full copy of the database (used as primaries + secondaries in the
  local-ceiling mode; only the primary partition is touched in the
  global mode);
- a service registry + Message Server for inter-site traffic;
- optionally a *local* ceiling manager (local mode), or data/commit
  servers (global mode) — wired up by the architecture modules.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..db.objects import Database
from ..kernel.kernel import Kernel
from ..kernel.ports import Port
from ..resources.cpu import CPU
from .message_server import MessageServer, ServiceRegistry
from .network import Network

class Site:
    """One node of the distributed system."""

    def __init__(self, kernel: Kernel, site_id: int, db_size: int,
                 network: Network):
        self.kernel = kernel
        self.site_id = site_id
        self.network = network
        #: Numbers this site's reply ports (names are per site).
        self._replies = itertools.count(1)
        self.cpu = CPU(kernel, name=f"cpu-{site_id}", policy="priority")
        self.database = Database(db_size, site_id=site_id)
        self.registry = ServiceRegistry()
        self.message_server = MessageServer(kernel, site_id, self.registry)
        network.attach_inbox(site_id, self.message_server.inbox)
        #: Set by the architecture module (local mode): the site's
        #: PriorityCeiling instance.
        self.ceiling = None
        #: Local-mode telemetry: commit-to-visible latency of every
        #: replica update applied at this site (time units).
        self.replica_apply_latencies = []
        #: Kernel processes whose lifetime is bound to this site's
        #: volatile transaction-processing state (in-flight TMs,
        #: replica-applier transactions, data-server helpers, cleanup
        #: couriers).  A crash interrupts them all; infrastructure
        #: server loops are *not* resident — they are modelled as
        #: recovering from stable state when the site comes back.
        self.resident = []
        #: Replica-update dedup memory: (origin site, origin tid, oid,
        #: version ts) of every update already applied here.  Kept on
        #: "stable storage" (survives crashes), like the copies it
        #: guards.
        self.applied_updates = set()
        #: Updates currently being applied (volatile — a crash clears
        #: it along with the applier transactions it tracks).  Guards
        #: against a courier retry spawning a second applier for an
        #: update whose first applier is still waiting on the lock.
        self.pending_updates = set()

    # ------------------------------------------------------------------
    # service plumbing
    # ------------------------------------------------------------------
    def register_service(self, name: str, port: Optional[Port] = None
                         ) -> Port:
        """Register (creating if needed) a service port under ``name``."""
        if port is None:
            port = Port(self.kernel, name=f"{name}@{self.site_id}")
        self.registry.register(name, port)
        return port

    def unregister_service(self, name: str) -> None:
        self.registry.unregister(name)

    def make_reply_port(self, label: str) -> "ReplyPort":
        """A uniquely named private port for request/reply exchanges."""
        name = f"reply-{label}-{next(self._replies)}"
        port = self.register_service(name)
        return ReplyPort(self, name, port)

    # ------------------------------------------------------------------
    # crash / recovery (fail-stop model; see DESIGN.md)
    # ------------------------------------------------------------------
    def adopt(self, process) -> None:
        """Bind ``process``'s lifetime to this site's volatile state."""
        self.resident.append(process)

    def crash(self, exc_factory):
        """Fail-stop: interrupt every resident process with
        ``exc_factory()`` and purge the Message Server inbox.  Returns
        ``(killed, purged)`` — processes actually interrupted and inbox
        messages discarded.  The network must separately be told the
        site is down."""
        residents, self.resident = self.resident, []
        self.pending_updates.clear()
        killed = 0
        for process in residents:
            if self.kernel.interrupt(process, exc_factory()):
                killed += 1
        purged = self.message_server.purge()
        return killed, purged

    def recover(self) -> None:
        """Restart after a crash: rebuild ceiling state.

        The kill paths release a victim's locks through the protocol's
        own abort, so this is a defensive sweep: any lock still held by
        a terminated owner (a kill path that never got to run) is
        force-released so the rebuilt ceiling state cannot embalm a
        dead transaction.  Lock owners are tids; every one is
        registered with the protocol.
        """
        if self.ceiling is None:
            return
        cc = self.ceiling
        for tid in list(cc.locks.owners()):
            txn = cc.active[tid]
            process = txn.process
            if process is not None and process.terminated:
                cc.abort(txn)
                cc.deregister(txn)

    def send(self, dst_site: int, message) -> None:
        """Route a message: local targets go straight to the service
        port (intra-site IPC bypasses the Message Server); remote
        targets go through the network."""
        if dst_site == self.site_id:
            port = self.registry.lookup(message.target)
            if port is None:
                self.registry.undeliverable += 1
                return
            port.send(message)
        else:
            self.network.send(dst_site, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Site(id={self.site_id})"


class ReplyPort:
    """A private, auto-unregistering reply port."""

    def __init__(self, site: Site, name: str, port: Port):
        self.site = site
        self.name = name
        self.port = port

    @property
    def address(self):
        """(site, service-name) to put in a message's ``reply_to``."""
        return (self.site.site_id, self.name)

    def receive(self, timeout: Optional[float] = None):
        return self.port.receive(timeout=timeout)

    def close(self) -> None:
        """Unregister; late replies are dropped (and counted) by the MS."""
        self.site.unregister_service(self.name)
