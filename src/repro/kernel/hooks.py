"""The instrumentation seam: one slot on the kernel, any number of
subscribers behind it.

A :class:`Kernel` samples the process-level activation once, at
construction, and stores the result in ``kernel.hooks`` — ``None``
when nothing observes.  Every instrumented layer reads that slot from
its kernel and every hook site is one guard and one call carrying the
live objects::

    hooks = self.kernel.hooks
    if hooks is not None:
        hooks.lock_grant(kernel.now, self, txn, oid, mode, None)

Lint rule RPL008 holds every call on the slot to that guard.  With the
slot ``None`` a site costs the attribute read and the test: no call, no
frame, nothing stored per transaction.

A *subscriber* is any object that defines methods named after the
hooks it cares about (:data:`HOOKS`), with the hook's signature: the
:class:`~repro.trace.tracer.Tracer`, the telemetry probes, the
:class:`~repro.analyze.sanitizer.Sanitizer`.  A subscriber must not
draw randomness, schedule events or mutate model state — instrumented
runs are bitwise identical to plain ones.  The per-hook fan-out is
built when :class:`Hooks` is constructed, never per call: a hook nobody
implements is one shared no-op, a hook with one subscriber *is* that
subscriber's bound method.

:func:`observing` is the one activation; ``tracing()``, ``metering()``
and ``sanitize()`` are front-ends over it and compose when nested.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Iterator, Optional, Tuple

#: Hook name -> signature, grouped by the layer that fires it.  The
#: first argument of every run-time hook is the simulated time.
HOOKS = {
    # kernel/ — ``kind`` is "spawn", "interrupt" or "terminate".
    "kernel_event": "(now, kind, process, detail)",
    # resources/
    "cpu_dispatch": "(now, cpu, process)",
    "cpu_preempt": "(now, cpu, process)",
    # cc/ — ``request`` is the cc.base.Request that waited, or None
    # for a grant without waiting; ``conflicts`` the incompatible
    # holders ([] on a ceiling block); the ceiling hooks fire after
    # ``txn`` joined / left the active set of a ceiling protocol.
    "attach_protocol": "(cc)",
    "txn_register": "(now, cc, txn)",
    "txn_deregister": "(now, cc, txn)",
    "lock_request": "(now, cc, txn, oid, mode)",
    "lock_grant": "(now, cc, txn, oid, mode, request)",
    "lock_block": "(now, cc, request, cause, conflicts)",
    "lock_withdraw": "(now, cc, request)",
    "lock_release": "(now, cc, txn, freed)",
    "lock_abort": "(now, cc, txn)",
    "lock_commit": "(now, cc, txn)",
    "priority_inherit": "(now, txn, priority)",
    "priority_restore": "(now, txn)",
    "ceiling_raise": "(now, cc, txn)",
    "ceiling_lower": "(now, cc, txn)",
    # txn/ and the dist/ transaction managers
    "txn_start": "(now, txn, applier=False)",
    "txn_block": "(now, txn)",
    "txn_unblock": "(now, txn, waited)",
    "txn_commit": "(now, txn, applier=False)",
    "txn_restart": "(now, txn)",
    "txn_miss": "(now, txn, reason)",
    "txn_abort": "(now, txn, reason)",
    # dist/
    "msg_send": "(now, dst, message, copies)",
    "msg_deliver": "(now, dst, message, lag)",
    "msg_drop": "(now, dst, message, reason)",
    "msg_undeliverable": "(now, site, message)",
    "msg_retry": "(now, site, dst, tid, label)",
    "rpc_begin": "(now, site, dst, tid, label)",
    "rpc_end": "(now, site, dst, tid, label)",
    "rpc_timeout": "(now)",
    "rpc_stale": "(now)",
    "courier_retry": "(now, site, dst, label)",
    "courier_failure": "(now)",
    "two_pc": "(now, txn, phase, participants, commit=None)",
    "replica_write": "(now, catalog, site, oid, timestamp)",
    "site_crash": "(now, site, victims)",
    "site_recover": "(now, site)",
}

#: Environment activation of the protocol sanitizer, honoured here
#: because the kernel is what samples the activation.
ENV_SANITIZE = "REPRO_SANITIZE"

_NEVER = float("inf")


def _ignore(*args) -> None:
    """The fan-out of a hook no subscriber implements."""


def _fan_out(methods: list) -> Callable[..., None]:
    if not methods:
        return _ignore
    if len(methods) == 1:
        return methods[0]

    def call_each(*args) -> None:
        for method in methods:
            method(*args)
    return call_each


class Hooks:
    """What one kernel's layers call: every name in :data:`HOOKS` is an
    attribute holding that hook's fan-out over ``subscribers``.

    The queue sampler is the one pull-style hook, and so a method: a
    subscriber that defines ``kernel_sample(now, kernel)`` also defines
    ``sample_due() -> float``, the simulated time from which it wants
    the dispatch loop to call it, and is called once per crossing.
    """

    def __init__(self, subscribers: Tuple[object, ...]):
        self.subscribers = tuple(subscribers)
        for name in HOOKS:
            setattr(self, name, _fan_out(
                [getattr(subscriber, name)
                 for subscriber in self.subscribers
                 if hasattr(subscriber, name)]))
        self._samplers = [subscriber for subscriber in self.subscribers
                          if hasattr(subscriber, "kernel_sample")]

    def sample_due(self) -> float:
        return min([sampler.sample_due() for sampler in self._samplers],
                   default=_NEVER)

    def kernel_sample(self, now: float, kernel) -> float:
        """Sample whoever is due; returns the next :meth:`sample_due`."""
        for sampler in self._samplers:
            if now >= sampler.sample_due():
                sampler.kernel_sample(now, kernel)
        return self.sample_due()


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[Hooks] = None


def activation() -> Optional[Hooks]:
    """What a kernel built now observes with (None: nothing).

    ``REPRO_SANITIZE`` joins in here: when it asks for a sanitizer and
    none is subscribed, a process-wide one is, so the violations of
    every system built in this process land in one place."""
    global _ACTIVE
    if ENV_SANITIZE in os.environ:
        # Deferred: the kernel package stays importable first.
        from ..analyze.sanitizer import with_environment
        _ACTIVE = with_environment(_ACTIVE)
    return _ACTIVE


@contextlib.contextmanager
def observing(*subscribers: object) -> Iterator[Hooks]:
    """Kernels built inside the block call ``subscribers`` too.

    Nests: what was already observing keeps observing, except that a
    new subscriber stands in for an active one of its own class (an
    inner ``tracing()`` shadows the outer tracer, an explicit sanitizer
    the environment's).  The previous activation returns on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    shadowed = tuple(type(subscriber) for subscriber in subscribers)
    kept = () if previous is None else tuple(
        subscriber for subscriber in previous.subscribers
        if not isinstance(subscriber, shadowed))
    _ACTIVE = active = Hooks(kept + subscribers)
    try:
        yield active
    finally:
        _ACTIVE = previous
