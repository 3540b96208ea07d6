"""Engine behaviour: determinism, caching, retries, fault tolerance."""

import pytest

from repro.core.config import SingleSiteConfig, WorkloadConfig
from repro.core.experiment import run_single_site
from repro.exec import (ExecutionError, InjectedFailure, ResultCache,
                        plan_batch, plan_replications,
                        reset_session_counters, resolve_jobs, run_units,
                        session_counters)
from repro.exec.worker import execute_config

from .conftest import tiny_config


def plan(replications=3, **overrides):
    return plan_replications(tiny_config(**overrides),
                             replications=replications)


# ----------------------------------------------------------------------
# determinism / merge order
# ----------------------------------------------------------------------
def test_serial_rows_are_repeatable():
    first = run_units(plan(), jobs=1)
    second = run_units(plan(), jobs=1)
    assert first.rows == second.rows
    assert first.ok and second.ok


def test_pool_rows_match_serial_rows():
    serial = run_units(plan(replications=4), jobs=1)
    pooled = run_units(plan(replications=4), jobs=4)
    assert pooled.rows == serial.rows
    assert pooled.stats.jobs == 4
    assert pooled.stats.computed == 4


def test_batch_merge_order_is_plan_order():
    units = plan_batch([tiny_config(), tiny_config(protocol="L")],
                       replications=2)
    pooled = run_units(units, jobs=3)
    serial = run_units(units, jobs=1)
    assert pooled.rows == serial.rows


def _victim_config():
    """2PL with a victim policy: waits-for successor sets iterate in
    ``hash(tid)`` order, so which transaction a cycle search reaches
    first — and with it the victim and the row — depends on the tid
    offset the run starts from."""
    return SingleSiteConfig(
        protocol="L", db_size=8, seed=4,
        protocol_options=(("victim_policy", "lowest_priority"),),
        workload=WorkloadConfig(n_transactions=34, mean_interarrival=2.0,
                                transaction_size=2, size_jitter=0))


def test_row_does_not_depend_on_what_the_interpreter_ran_before():
    # While ids came from process globals this unit read throughput
    # 0.5306 or 0.5030 depending on the tid offset the interpreter had
    # reached (every fourth back-to-back call, the second value), and
    # a direct run_single_site caller still did after the exec worker
    # learned to reset them.  Ids now belong to the system.
    config = _victim_config()
    first = execute_config(config)
    assert [run_single_site(config) for __ in range(4)] == [first] * 4
    assert execute_config(config) == first


def test_serial_and_pool_agree_on_an_id_sensitive_config():
    # The serial loop reaches unit k at the offset units 0..k-1 left
    # behind; a pool worker reaches it at its own.
    units = plan_replications(_victim_config(), replications=4,
                              base_seed=4)
    serial = run_units(units, jobs=1, cache=False)
    pooled = run_units(units, jobs=2, cache=False)
    assert serial.ok and pooled.ok
    assert pooled.rows == serial.rows


# ----------------------------------------------------------------------
# jobs resolution
# ----------------------------------------------------------------------
def test_resolve_jobs_argument_env_default(monkeypatch):
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(2) == 2
    with pytest.raises(ValueError):
        resolve_jobs(0)


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------
def test_warm_cache_recomputes_nothing(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_units(plan(), jobs=1, cache=cache)
    assert cold.stats.computed == 3 and cold.stats.cache_hits == 0
    warm = run_units(plan(), jobs=1, cache=cache)
    assert warm.stats.computed == 0 and warm.stats.cache_hits == 3
    assert warm.rows == cold.rows


def test_warm_cache_serves_pool_runs(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_units(plan(), jobs=2, cache=cache)
    warm = run_units(plan(), jobs=2, cache=cache)
    assert warm.stats.computed == 0 and warm.stats.cache_hits == 3
    assert warm.rows == cold.rows


def test_changed_knob_misses_cache(tmp_path):
    cache = ResultCache(tmp_path)
    run_units(plan(), jobs=1, cache=cache)
    other = run_units(plan(transaction_size=4), jobs=1, cache=cache)
    assert other.stats.cache_hits == 0


# ----------------------------------------------------------------------
# fault tolerance (the REPRO_EXEC_INJECT test hook)
# ----------------------------------------------------------------------
def test_transient_failure_is_retried_serial():
    result = run_units(plan(), jobs=1, inject="1001:1", backoff=0.0)
    assert result.ok
    assert result.stats.retries == 1
    assert all(row is not None for row in result.rows)


def test_transient_failure_is_retried_pool():
    result = run_units(plan(), jobs=2, inject="1001:1", backoff=0.0)
    assert result.ok
    assert result.stats.retries == 1


def test_exhausted_unit_is_structured_failure_not_abort():
    result = run_units(plan(), jobs=1, inject="1001:inf", retries=1,
                       backoff=0.0)
    assert not result.ok
    assert [failure.seed for failure in result.failures] == [1001]
    failure = result.failures[0]
    assert failure.attempts == 2            # retries=1 -> 2 attempts
    assert "InjectedFailure" in failure.error
    assert failure.traceback
    # The rest of the sweep still completed.
    assert sum(row is not None for row in result.rows) == 2
    assert result.rows[1] is None


def test_exhausted_unit_pool_mode():
    result = run_units(plan(replications=4), jobs=3,
                       inject="2001:inf", retries=1, backoff=0.0)
    assert [failure.seed for failure in result.failures] == [2001]
    assert sum(row is not None for row in result.rows) == 3


def test_require_success_raises_with_failure_details():
    result = run_units(plan(), jobs=1, inject="1:inf", retries=0,
                       backoff=0.0)
    with pytest.raises(ExecutionError) as excinfo:
        result.require_success()
    assert "seed=1" in str(excinfo.value)
    assert excinfo.value.failures == result.failures


def test_crashed_worker_is_retried_and_recovered():
    """os._exit in a worker breaks the pool; the engine rebuilds it."""
    result = run_units(plan(replications=4), jobs=2,
                       inject="1001:1:crash", backoff=0.0)
    assert result.ok
    assert result.stats.pool_restarts >= 1
    assert all(row is not None for row in result.rows)


def test_persistent_crasher_fails_alone():
    result = run_units(plan(replications=4), jobs=2,
                       inject="1001:inf:crash", retries=1, backoff=0.0)
    assert not result.ok
    assert any(failure.seed == 1001 for failure in result.failures)
    # Peers eventually settle despite repeated pool teardowns.
    survivors = sum(row is not None for row in result.rows)
    assert survivors >= 2


def test_inject_env_hook(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_INJECT", "1:inf")
    result = run_units(plan(), jobs=1, retries=0, backoff=0.0)
    assert [failure.seed for failure in result.failures] == [1]
    with pytest.raises(InjectedFailure):
        from repro.exec import invoke_unit
        invoke_unit(0, tiny_config(seed=1))


def test_timeout_is_a_failed_attempt():
    result = run_units(plan(replications=2), jobs=2,
                       inject="1001:1:sleep=2", timeout=0.4,
                       backoff=0.0)
    # First attempt hangs, times out, and the retry (attempt 1, past
    # the clause's budget) succeeds.
    assert result.ok
    assert result.stats.retries >= 1
    assert result.stats.pool_restarts >= 1


# ----------------------------------------------------------------------
# session counters
# ----------------------------------------------------------------------
def test_session_counters_accumulate(tmp_path):
    reset_session_counters()
    cache = ResultCache(tmp_path)
    run_units(plan(), jobs=1, cache=cache)
    run_units(plan(), jobs=1, cache=cache)
    counters = session_counters()
    assert counters["runs"] == 2
    assert counters["units"] == 6
    assert counters["computed"] == 3
    assert counters["cache_hits"] == 3
