"""The protocol sanitizer: opt-in runtime invariant checking.

Activation (any of):

- environment — ``REPRO_SANITIZE=1`` (strict: the first violation
  raises :class:`SanitizerViolation`) or ``REPRO_SANITIZE=record``
  (collect violations, never raise);
- CLI — ``python -m repro <figure> --sanitize``;
- programmatic — ``with repro.analyze.sanitize() as s: ...``.

The sanitizer is a subscriber to the kernel's instrumentation hooks
(:mod:`repro.kernel.hooks`) and itself a thin dispatcher: each protocol
instance announces itself (``attach_protocol``) and gets a checker of
its own (:class:`~repro.analyze.invariants.CeilingChecker` for the
ceiling protocols, ``TwoPhaseChecker`` for the 2PL family), which the
protocol's later hooks are handed to.  Checkers report
:class:`~repro.analyze.invariants.Violation` records here; the
sanitizer stores them (and raises in strict mode).  This module never
imports the model packages at load time.
"""

from __future__ import annotations

import contextlib
import os
import weakref
from typing import Dict, Iterator, List, Optional

from ..kernel.hooks import ENV_SANITIZE as ENV_VAR, Hooks, observing
from .invariants import (CeilingChecker, ProtocolChecker,
                         TwoPhaseChecker, Violation, check_replica_write)


class SanitizerViolation(AssertionError):
    """Raised in strict mode the moment an invariant breaks.  An
    AssertionError subclass: a violation is always an implementation
    bug, never a run condition."""

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


class _Gone:
    """Stands in for the checker of a protocol that is being garbage
    collected: the cleanup of a manager still suspended in that system
    can fire the protocol's hooks after its weak references died."""

    def __getattr__(self, name: str):
        return lambda *args: None


_GONE = _Gone()


class Sanitizer:
    """Collects invariant violations from attached checkers."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.violations: List[Violation] = []
        #: id(protocol) -> its checker, dropped with the protocol: an
        #: environment-activated sanitizer lives as long as the
        #: process and must not keep every system it checked alive.
        self._checkers: Dict[int, ProtocolChecker] = {}

    # ------------------------------------------------------------------
    # hooks (see repro.kernel.hooks.HOOKS)
    # ------------------------------------------------------------------
    def attach_protocol(self, cc) -> ProtocolChecker:
        """Checker for a concurrency-control instance.

        The protocol table's ``ceiling`` family gets the
        :class:`CeilingChecker`, every other row the
        :class:`TwoPhaseChecker`; the table is imported lazily so this
        module keeps its no-model-imports contract at load time.
        Protocol objects outside the table (ad-hoc test doubles) fall
        back to duck typing: ceiling protocols expose ``rw_ceiling``.
        """
        from ..protocols import REGISTRY
        name = getattr(cc, "name", None)
        ceiling = (REGISTRY.resolve(name).family == "ceiling"
                   if name in REGISTRY else hasattr(cc, "rw_ceiling"))
        checker_class = CeilingChecker if ceiling else TwoPhaseChecker
        checker = checker_class(self, weakref.proxy(cc))
        self._checkers[id(cc)] = checker
        weakref.finalize(cc, self._checkers.pop, id(cc), None)
        return checker

    def txn_register(self, now, cc, txn) -> None:
        self._checkers.get(id(cc), _GONE).txn_register(txn)

    def txn_deregister(self, now, cc, txn) -> None:
        self._checkers.get(id(cc), _GONE).txn_deregister(txn)

    def lock_grant(self, now, cc, txn, oid, mode, request) -> None:
        self._checkers.get(id(cc), _GONE).lock_grant(txn, oid, mode)

    def lock_block(self, now, cc, request, cause, conflicts) -> None:
        self._checkers.get(id(cc), _GONE).lock_block(request.txn, request.oid,
                                      request.mode)

    def lock_release(self, now, cc, txn, freed) -> None:
        self._checkers.get(id(cc), _GONE).lock_release(txn, freed)

    def lock_abort(self, now, cc, txn) -> None:
        self._checkers.get(id(cc), _GONE).lock_abort(txn)

    def lock_commit(self, now, cc, txn) -> None:
        self._checkers.get(id(cc), _GONE).lock_commit(txn)

    def replica_write(self, now, catalog, site, oid, timestamp) -> None:
        violation = check_replica_write(catalog, site, oid, timestamp)
        if violation is not None:
            self.report(violation)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.strict:
            raise SanitizerViolation(violation)

    @property
    def clean(self) -> bool:
        return not self.violations

    def by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return counts

    def clear(self) -> None:
        self.violations.clear()

    def summary(self) -> str:
        if self.clean:
            return "sanitizer: no violations"
        counts = ", ".join(f"{code} x{count}"
                           for code, count in sorted(self.by_code()
                                                     .items()))
        lines = [f"sanitizer: {len(self.violations)} violation(s) "
                 f"({counts})"]
        lines.extend(f"  {violation}"
                     for violation in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------
def with_environment(active: Optional[Hooks]) -> Optional[Hooks]:
    """``active`` plus, when ``REPRO_SANITIZE`` asks for one and none
    is subscribed, a sanitizer (strict unless the value is ``record``).
    The kernel's activation keeps the result, so one instance serves
    every system this process builds."""
    subscribers = () if active is None else active.subscribers
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if (value in ("", "0", "false", "no", "off")
            or any(isinstance(subscriber, Sanitizer)
                   for subscriber in subscribers)):
        return active
    return Hooks(subscribers + (Sanitizer(strict=value != "record"),))


@contextlib.contextmanager
def sanitize(strict: bool = True) -> Iterator[Sanitizer]:
    """Scoped activation: systems built inside the block are checked
    (by this sanitizer in place of an outer or environment one, beside
    anything else observing).

        with sanitize(strict=False) as s:
            SingleSiteSystem(config).run()
        assert s.clean, s.summary()
    """
    sanitizer = Sanitizer(strict=strict)
    with observing(sanitizer):
        yield sanitizer
