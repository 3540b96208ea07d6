"""The sanctioned host-clock helper for simulation-adjacent code.

Lint rule RPL001 bans direct ``time.time()`` / ``time.perf_counter()``
calls in ``cc/``, ``dist/``, ``kernel/`` and ``telemetry/``: host time
leaking into those layers is exactly how determinism dies.  Code in
those layers that legitimately needs to measure *elapsed host* time
(overhead accounting, worker telemetry) must route through this
module — the rule's one host-clock gateway, which deliberately exposes
only a monotonic elapsed-seconds reading and no absolute wall-clock.
"""

from __future__ import annotations

import time


def host_clock() -> float:
    """Monotonic host seconds for elapsed-time measurement.

    Never use the value in simulation state or fingerprinted output —
    it differs between hosts and runs by construction.
    """
    return time.perf_counter()
