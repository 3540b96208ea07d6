"""repro.analyze — correctness tooling for the prototyping environment.

Two independent prongs (see DESIGN.md, "Correctness tooling"):

- **static lint** (:mod:`repro.analyze.engine`,
  :mod:`repro.analyze.rules`): an AST rule engine run as ``repro lint``
  or ``python -m repro.analyze``, with determinism- and
  protocol-hygiene rules specific to this codebase;
- **runtime sanitizer** (:mod:`repro.analyze.sanitizer`,
  :mod:`repro.analyze.invariants`): opt-in invariant checkers
  subscribed to the hooks of the concurrency-control protocols, the
  transaction managers and replica propagation, re-deriving each
  protocol's contract independently (double-entry bookkeeping for
  invariants).
"""

import importlib

from .invariants import (CeilingChecker, ProtocolChecker,
                         TwoPhaseChecker, Violation)
from .sanitizer import ENV_VAR, Sanitizer, SanitizerViolation, sanitize

#: The lint prong's public names and their modules.  Resolved on first
#: access: a run under ``REPRO_SANITIZE`` imports this package for the
#: sanitizer and must not pay for the AST engine and the rule table.
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
    "Sanitizer",
    "SanitizerViolation",
    "TwoPhaseChecker",
    "Violation",
    "render_json",
    "render_text",
    "sanitize",
]
