"""Benchmark harness: every figure and ablation as one sweep spec.

``SPECS`` is the table; ``run`` and ``render`` are the two functions
over a row.  The CLI, the ``benchmarks/`` pytest wrappers, examples and
notebooks all read the same rows.
"""

from .figures import (SPECS, Sweep, Table, distributed_config, render,
                      run, single_site_config)

__all__ = [
    "SPECS",
    "Sweep",
    "Table",
    "distributed_config",
    "render",
    "run",
    "single_site_config",
]
