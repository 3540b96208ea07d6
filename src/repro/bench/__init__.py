"""Benchmark harness: every figure and ablation as one sweep spec.

``SPECS`` is the table; ``run``, ``render`` and ``verdicts`` are the
functions over a row.  The CLI, tier-1, examples and notebooks all read
the same rows, and a row's claims are the paper's results it checks.
"""

from .figures import (SPECS, Claim, Sweep, Table, distributed_config,
                      render, run, single_site_config, verdicts)

__all__ = [
    "SPECS",
    "Claim",
    "Sweep",
    "Table",
    "distributed_config",
    "render",
    "run",
    "single_site_config",
    "verdicts",
]
