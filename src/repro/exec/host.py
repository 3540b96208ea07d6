"""Host-process measurement helpers shared by exec and bench.

Everything here reads *host* state (the process's peak RSS) and
therefore must never be called from simulation code — host
measurements belong to the layer that runs simulations, not the layer
being simulated.  Wall time comes from
:func:`repro.telemetry.hostclock.host_clock`, the sanctioned gateway
lint rule RPL001 points host-clock-hungry code at.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["peak_rss_kb"]


def peak_rss_kb() -> Optional[int]:
    """Process peak RSS in KB (Linux semantics), or None when the
    ``resource`` module is unavailable (non-POSIX hosts)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
