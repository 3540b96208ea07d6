"""Benchmark harness configuration.

Each benchmark regenerates one figure (or ablation) of the paper: it
runs the sweep once under pytest-benchmark timing (rounds=1 — the sweep
itself already averages over seeded replications), prints the series as
a text table, and asserts the paper's qualitative shape.

Environment knobs:

- ``REPRO_BENCH_REPS`` — seeded replications per sweep point (default
  5; the paper used 10 — raise it for final numbers, lower it for
  smoke runs).
- ``REPRO_JOBS`` — worker processes for the repro.exec engine behind
  every sweep (default 1 = serial).  The harness prints an ``[exec]``
  trailer under each table showing units run, cache hits and worker
  utilization for the measured sweep.
- ``REPRO_CACHE_DIR`` — turn on the on-disk result cache so repeated
  benchmark sessions only compute missing sweep points (cache hits are
  visible in the trailer; remember the timing then measures cache
  reads, not simulation).
"""

import os

import pytest

from repro.exec import resolve_jobs, session_counters


@pytest.fixture(scope="session")
def replications():
    return int(os.environ.get("REPRO_BENCH_REPS", "5"))


@pytest.fixture(scope="session")
def jobs():
    """Worker processes for the execution engine (``REPRO_JOBS``)."""
    return resolve_jobs(None)


@pytest.fixture
def run_sweep(benchmark, jobs):
    """Run ``fn`` once under the benchmark timer and return its value.

    The sweep inherits ``REPRO_JOBS``/``REPRO_CACHE_DIR`` through the
    engine's environment resolution; the printed ``[exec]`` line makes
    the pool and cache activity visible next to each emitted table.
    """

    def runner(fn, *args, **kwargs):
        before = session_counters()
        value = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                   rounds=1, iterations=1)
        delta = {key: count - before[key]
                 for key, count in session_counters().items()}
        if delta["units"]:
            print(f"[exec] jobs={jobs} units={delta['units']} "
                  f"computed={delta['computed']} "
                  f"cache_hits={delta['cache_hits']} "
                  f"failures={delta['failures']}")
        return value

    return runner
