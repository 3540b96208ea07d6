"""repro.analyze — correctness tooling for the prototyping environment.

Two independent prongs (see DESIGN.md, "Correctness tooling"):

- **static lint** (:mod:`repro.analyze.engine`,
  :mod:`repro.analyze.rules`): an AST rule engine run as ``repro lint``
  or ``python -m repro.analyze``, with determinism- and
  protocol-hygiene rules specific to this codebase;
- **runtime sanitizer** (:mod:`repro.analyze.sanitizer`,
  :mod:`repro.analyze.invariants`): opt-in invariant checkers hooked
  into the lock table, the concurrency-control protocols, transaction
  managers and the replica catalog, re-deriving each protocol's
  contract independently (double-entry bookkeeping for invariants).
"""

import importlib

from .invariants import (CeilingChecker, ProtocolChecker,
                         ReplicationChecker, TwoPhaseChecker, Violation)
from .sanitizer import (ENV_VAR, Sanitizer, SanitizerViolation,
                        current_sanitizer, install_sanitizer, sanitize,
                        sanitizer_enabled, uninstall_sanitizer)

#: The lint prong's public names and their modules.  Resolved on first
#: access: the simulation stack imports this package for the sanitizer
#: (``cc/base.py``) and must not pay for the AST engine and the rule
#: table on every ``import repro``.
_LAZY = {
    "Finding": "engine", "LintEngine": "engine",
    "render_json": "engine", "render_text": "engine",
    "DEFAULT_RULES": "rules", "RULE_INDEX": "rules",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "CeilingChecker",
    "DEFAULT_RULES",
    "ENV_VAR",
    "Finding",
    "LintEngine",
    "ProtocolChecker",
    "RULE_INDEX",
    "ReplicationChecker",
    "Sanitizer",
    "SanitizerViolation",
    "TwoPhaseChecker",
    "Violation",
    "current_sanitizer",
    "install_sanitizer",
    "render_json",
    "render_text",
    "sanitize",
    "sanitizer_enabled",
    "uninstall_sanitizer",
]
