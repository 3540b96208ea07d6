"""Network model: topology and communication delay.

The paper's distributed experiments use "three sites with fully
interconnected communication network" and sweep a uniform per-message
communication delay.  The network delivers a message into the
destination site's Message Server inbox after the link delay;
delivery order per link is FIFO (fixed delay preserves send order).

Intra-site messages bypass the network entirely (the paper:
"Inter-process communication within a site does not go through the
Message Server") — senders with a local destination should use the
service port directly; :meth:`send` nevertheless handles the
self-addressed case with zero delay for uniformity of caller code.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from ..kernel.kernel import Kernel
from .message import Message


class Network:
    """Fully connected mesh with one constant inter-site delay."""

    def __init__(self, kernel: Kernel, n_sites: int, delay: float):
        if n_sites < 1:
            raise ValueError(f"need at least one site, got {n_sites}")
        if delay < 0:
            raise ValueError("delays must be non-negative")
        self.kernel = kernel
        self.n_sites = n_sites
        self.delay = delay
        #: site -> inbox port (wired by DistributedSystem).
        self.inboxes: Dict[int, object] = {}
        #: Sites currently not operational: messages to them vanish
        #: (senders discover this through their receive timeouts — the
        #: paper's "time-out mechanism will unblock the sender").
        self._down: set = set()
        self.messages_sent = 0
        self.messages_lost = 0
        #: Optional :class:`repro.faults.FaultInjector`; when attached,
        #: it decides each message's fate (loss, jitter, duplication,
        #: reordering, partitions) on a dedicated RNG stream.
        self.injector = None

    def attach_inbox(self, site: int, inbox) -> None:
        self._check_site(site)
        self.inboxes[site] = inbox

    def set_site_operational(self, site: int, operational: bool) -> None:
        """Mark a site up or down.  Messages to a down site are lost;
        a sender waiting for a reply discovers the failure through its
        receive timeout."""
        self._check_site(site)
        if operational:
            self._down.discard(site)
        else:
            self._down.add(site)

    def is_operational(self, site: int) -> bool:
        self._check_site(site)
        return site not in self._down

    def attach_injector(self, injector) -> None:
        """Route every subsequent send through a fault injector."""
        self.injector = injector

    def send(self, dst: int, message: Message) -> None:
        """Deliver ``message`` to site ``dst``'s Message Server inbox
        after the delay from ``message.sender_site``."""
        self._check_site(dst)
        inbox = self.inboxes.get(dst)
        if inbox is None:
            raise RuntimeError(f"site {dst} has no attached inbox")
        src = message.sender_site
        delay = 0.0 if src == dst else self.delay
        self.messages_sent += 1
        if self.injector is None:
            fates = (delay,)
        else:
            fates = self.injector.route(src, dst, delay)
        kernel = self.kernel
        hooks = kernel.hooks
        if hooks is not None:
            hooks.msg_send(kernel.now, dst, message, len(fates))
            if not fates:
                hooks.msg_drop(kernel.now, dst, message, "injected")
        for lag in fates:
            if lag == 0:
                self._deliver(dst, inbox, message, lag)
            else:
                # A partial over a method, not a closure: a message in
                # flight is one event whose callback is the delivery
                # itself, with no lambda frame in between.
                kernel.after(lag, partial(self._deliver, dst, inbox,
                                          message, lag))

    def _deliver(self, dst: int, inbox, message: Message,
                 lag: float) -> None:
        """One fate of ``message`` lands after ``lag``."""
        # Operational state is evaluated at delivery time: a site that
        # crashes while a message is in flight still loses it.
        hooks = self.kernel.hooks
        if dst in self._down:
            self.messages_lost += 1
            if hooks is not None:
                hooks.msg_drop(self.kernel.now, dst, message, "site-down")
        else:
            if hooks is not None:
                hooks.msg_deliver(self.kernel.now, dst, message, lag)
            inbox.send(message)

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} outside 0..{self.n_sites - 1}")
