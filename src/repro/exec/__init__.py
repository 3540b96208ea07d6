"""repro.exec — parallel experiment execution engine.

Plans sweep/replication requests into independent run units, executes
them serially or on a process pool that survives a dying worker,
caches per-unit summary rows in memory and on disk keyed by stable
config fingerprints, and reports progress.  See DESIGN.md ("Execution
engine") for the architecture.
"""

from .cache import ResultCache, default_cache_dir, resolve_cache
from .engine import (ExecutionResult, reset_session_counters, run_units,
                     session_counters)
from .executor import (ExecutionError, ExecutionStats, UnitFailure,
                       resolve_jobs)
from .fingerprint import (CODE_VERSION, config_fingerprint,
                          describe_config)
from .host import peak_rss_kb
from .progress import NullProgress, TextProgress
from .units import (RunUnit, group_rows, plan_batch, plan_replications,
                    plan_subset, replication_seeds, rows_by_group)
from .worker import execute_config, invoke_unit

__all__ = [
    "CODE_VERSION",
    "ExecutionError",
    "ExecutionResult",
    "ExecutionStats",
    "NullProgress",
    "ResultCache",
    "RunUnit",
    "TextProgress",
    "UnitFailure",
    "config_fingerprint",
    "default_cache_dir",
    "describe_config",
    "execute_config",
    "group_rows",
    "invoke_unit",
    "peak_rss_kb",
    "plan_batch",
    "plan_replications",
    "plan_subset",
    "replication_seeds",
    "reset_session_counters",
    "resolve_cache",
    "resolve_jobs",
    "rows_by_group",
    "run_units",
    "session_counters",
]
