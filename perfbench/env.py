"""Environment hygiene: what the benchmark refuses, what children get.

Stdlib-only, so ``python -m perfbench`` can check the environment and
re-execute under the fixed hash seed before ``repro`` is imported.
"""

from __future__ import annotations

import os
from typing import Dict, List

from . import ROOT

#: Environment that would change what the measured code does.
FORBIDDEN_ENV = ("REPRO_ENGINE", "REPRO_JOBS", "REPRO_CACHE_DIR",
                 "REPRO_NO_CACHE", "REPRO_SANITIZE", "REPRO_TRACE_DIR",
                 "REPRO_METRICS_DIR")
FORBIDDEN_ENV_PREFIX = "REPRO_EXEC_"

#: Hash seed of the measuring interpreter and of every child.
HASH_SEED = "0"


def forbidden_env(environ=os.environ) -> List[str]:
    return sorted(name for name in environ
                  if name in FORBIDDEN_ENV
                  or name.startswith(FORBIDDEN_ENV_PREFIX))


def child_env(environ=os.environ, root: str = ROOT) -> Dict[str, str]:
    """The environment every child interpreter gets: no ``REPRO_*``
    knob, one fixed hash seed, and only the checkout on the module
    path (``repro`` is found from there by ``perfbench/__init__``)."""
    env = {name: value for name, value in environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = root
    return env
