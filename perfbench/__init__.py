"""perfbench — the repo's end-to-end, speed-corrected benchmark.

Four figure-shaped workloads, four gated end-to-end metrics built to
repeat on a noisy shared host, and a separate traced run that charges
host time and call counts to this repo's layers.  ``BENCHMARK.json`` at
the repository root names this package; ``perfbench/README.md`` holds
the metric and workload definitions and the recorded noise floor.

The package imports only ``repro``'s public API and edits nothing under
``src/``.  ``repro`` is not installed in the benchmark checkout, so the
source tree next to this package is put on ``sys.path`` here; when it
is absent, importing :mod:`perfbench.workloads` fails and the command
exits non-zero without printing a result.
"""

from __future__ import annotations

import os
import sys

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)
