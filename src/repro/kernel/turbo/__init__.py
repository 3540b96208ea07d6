"""Engine selection: one kernel API, two event cores.

The reference engine (:class:`~repro.kernel.kernel.Kernel`, global
tuple heap) is the semantic ground truth; the turbo engine
(:class:`.engine.TurboKernel`, calendar queue + resume recycling) is the
throughput core.  Both produce bitwise-identical results — the golden
suite holds them to it — so which one runs is purely an operational
choice:

1. ``REPRO_ENGINE`` environment variable (wins; lets CI force an
   engine across a whole test run without touching configs),
2. the config's ``engine`` field (travels through the exec layer to
   pool workers, but is excluded from fingerprints — engine choice
   must not split the result cache),
3. default: ``"reference"``.

Diagnostic instrumentation overrides all of that: traced, metered and
sanitized runs force the reference engine (its loop carries the probe
window checks and the instrumentation contract the tools were
validated against), and a controlled run takes the reference
``Kernel.run``'s controlled arm on either engine.  Forcing is silent
and safe precisely because the engines are result-identical.
"""

from __future__ import annotations

import os
from typing import Optional

from ..hooks import activation
from ..kernel import Kernel
from .calendar import CalendarEventQueue
from .engine import TurboKernel

#: Recognized engine names, in documentation order.
ENGINES = ("reference", "turbo")

#: Environment variable overriding every config's engine choice.
ENV_ENGINE = "REPRO_ENGINE"


def resolve_engine(engine: Optional[str] = None) -> str:
    """The engine a run should use: env var > ``engine`` arg > default.

    Raises ``ValueError`` for unknown names (from either source) so a
    typo fails loudly instead of silently simulating on the default.
    """
    chosen = os.environ.get(ENV_ENGINE) or engine or ENGINES[0]
    if chosen not in ENGINES:
        raise ValueError(
            f"unknown engine {chosen!r}: expected one of {ENGINES}")
    return chosen


def make_kernel(seed: int = 0, engine: Optional[str] = None) -> Kernel:
    """Build the kernel for ``engine`` (resolved per module rules).

    The turbo engine silently falls back to reference when diagnostic
    instrumentation is active; results are identical either way, the
    instrumentation output is only defined for the reference loop.
    """
    if resolve_engine(engine) == "turbo" and activation() is None:
        return TurboKernel(seed=seed)
    return Kernel(seed=seed)


def active_engine(kernel: Kernel) -> str:
    """Which engine a kernel instance actually is (post-fallback)."""
    return "turbo" if isinstance(kernel, TurboKernel) else "reference"


__all__ = ["ENGINES", "ENV_ENGINE", "CalendarEventQueue", "TurboKernel",
           "resolve_engine", "make_kernel", "active_engine"]
