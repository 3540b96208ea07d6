"""The protocol table: one row per concurrency-control protocol.

The repo runs a fixed cast — the paper's five (L, P, PI, C, Cx) and the
post-paper multiprocessor suite (mpcp, dpcp, fmlp; Brandenburg,
arXiv:1909.09600, and Yang et al., arXiv:2007.00706).  Each is one
:class:`ProtocolSpec` row of :data:`TABLE`, and :data:`REGISTRY` is the
case-insensitive name/alias lookup built once from it.

A row's ``family`` is all the rest of the stack branches on:

- ``ceiling`` (C, Cx, dpcp) — checked by the sanitizer's
  ``CeilingChecker``, modelled by the ceiling pipeline, and never
  deadlocks, so it takes no options;
- ``twopl`` (L, P, PI) and ``queue`` (mpcp, fmlp) — checked by the
  ``TwoPhaseChecker``, modelled by the 2PL fixed point (which the queue
  locks only borrow, so the sweep pruner never ranks them), and take
  the deadlock ``victim_policy`` option.

Consumers never test protocol names against string literals (lint rule
RPL013 bans that outside this package); they ask the table.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..cc.deadlock import VICTIM_POLICIES
from ..cc.dpcp import DistributedPriorityCeiling
from ..cc.priority_ceiling import PriorityCeiling
from ..cc.priority_inheritance import PriorityInheritance
from ..cc.queue_locks import FMLPQueueLock, MPCP
from ..cc.twopl import TwoPhaseLocking, TwoPhaseLockingPriority


class UnknownProtocolError(ValueError):
    """Lookup failed; the message lists every name and alias."""


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """One protocol of the table."""

    #: Canonical name (the ``--protocol`` value; case-insensitive).
    name: str
    #: ``twopl``, ``ceiling`` or ``queue`` (see the module docstring).
    family: str
    #: ``factory(kernel, **options) -> ConcurrencyControl``, for the
    #: single-site system and every distributed lock manager.
    factory: Callable[..., Any]
    #: Alternate lookup names (case-insensitive, like ``name``).
    aliases: Tuple[str, ...] = ()
    #: True for the five protocols evaluated in the source paper.
    paper_protocol: bool = False
    #: Global-mode lock managers: ``manager`` keeps every decision at
    #: site 0 (the paper's global ceiling manager); ``primary`` places
    #: an agent at each object's primary site (DPCP).
    placement: str = "manager"

    def validate_options(
            self, options: Iterable[Tuple[str, Any]] = ()) -> Dict[str, Any]:
        """The ``(key, value)`` pairs a config carries, checked and
        returned as factory keywords.  Only a protocol that can
        deadlock takes one, ``victim_policy`` (the paper's model is its
        factory default, ``none``; A5 sweeps the others)."""
        validated: Dict[str, Any] = {}
        for key, value in options:
            if key in validated:
                raise ValueError(f"duplicate protocol option {key!r}")
            validated[key] = value
        known = [] if self.family == "ceiling" else ["victim_policy"]
        unknown = sorted(set(validated) - set(known))
        if unknown:
            raise ValueError(
                f"unknown option(s) {unknown} for protocol "
                f"{self.name!r}; supported: {known or 'none'}")
        policy = validated.get("victim_policy", "none")
        if policy not in VICTIM_POLICIES:
            raise ValueError(f"parameter 'victim_policy' must be one of "
                             f"{VICTIM_POLICIES}, got {policy!r}")
        return validated

    def build(self, kernel: Any,
              options: Iterable[Tuple[str, Any]] = ()) -> Any:
        """Instantiate the protocol for one lock-manager domain."""
        return self.factory(kernel, **self.validate_options(options))

    def manager_sites(self, n_sites: int) -> Tuple[int, ...]:
        """Sites that host a lock manager under the global approach."""
        if self.placement == "primary":
            return tuple(range(n_sites))
        return (0,)

    def lock_router(self, catalog: Any) -> Optional[Callable[[int], int]]:
        """Per-oid manager-site routing, or None for the single-manager
        path (whose message sequence must stay bit-identical)."""
        if self.placement == "primary":
            return catalog.primary_site
        return None


#: The cast, in the order ``--help`` and error messages list it.
TABLE: Tuple[ProtocolSpec, ...] = (
    ProtocolSpec("L", "twopl", TwoPhaseLocking, ("2pl",),
                 paper_protocol=True),
    ProtocolSpec("P", "twopl", TwoPhaseLockingPriority, ("2pl-priority",),
                 paper_protocol=True),
    ProtocolSpec("PI", "twopl", PriorityInheritance, ("inheritance",),
                 paper_protocol=True),
    ProtocolSpec("C", "ceiling", PriorityCeiling, ("pcp", "ceiling"),
                 paper_protocol=True),
    ProtocolSpec("Cx", "ceiling",
                 lambda kernel: PriorityCeiling(kernel, exclusive_only=True),
                 ("pcp-exclusive",), paper_protocol=True),
    ProtocolSpec("mpcp", "queue", MPCP, ("m-pcp",)),
    ProtocolSpec("dpcp", "ceiling", DistributedPriorityCeiling, ("d-pcp",),
                 placement="primary"),
    ProtocolSpec("fmlp", "queue", FMLPQueueLock, ("fifo-queue",)),
)


class _Lookup:
    """Name/alias → row over :data:`TABLE`, case-insensitive."""

    def __init__(self, specs: Tuple[ProtocolSpec, ...]) -> None:
        self._by_key = {key.casefold(): spec for spec in specs
                        for key in (spec.name,) + spec.aliases}
        self._names = tuple(spec.name for spec in specs)
        self._specs = specs
        aliases = sorted(alias for spec in specs for alias in spec.aliases)
        self._expected = (f"expected one of {self._names} "
                          f"(aliases: {', '.join(aliases)})")

    def resolve(self, name: str) -> ProtocolSpec:
        """Row for a canonical name or alias (case-insensitive)."""
        spec = (self._by_key.get(name.casefold())
                if isinstance(name, str) else None)
        if spec is None:
            raise UnknownProtocolError(
                f"unknown protocol {name!r}; {self._expected}")
        return spec

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.casefold() in self._by_key

    def names(self) -> Tuple[str, ...]:
        """Canonical names in table order."""
        return self._names

    def modelled_by(self, solver: str) -> Tuple[str, ...]:
        """Names the analytic model's ``solver`` covers: ``ceiling``
        takes the ceiling family, ``twopl`` every other row."""
        return tuple(spec.name for spec in self._specs
                     if (spec.family == "ceiling") == (solver == "ceiling"))


REGISTRY = _Lookup(TABLE)
