"""Engine behaviour: determinism, caching, one attempt per unit,
surviving a dying worker."""

import pytest

from repro.core.config import SingleSiteConfig, WorkloadConfig
from repro.core.experiment import run_single_site
from repro.exec import (ExecutionError, ResultCache, plan_batch,
                        plan_replications, reset_session_counters,
                        resolve_jobs, run_units, session_counters)
from repro.exec.worker import execute_config

from .conftest import needs_fork, tiny_config


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
# one attempt per unit (a patched execute_config, see conftest)
# ----------------------------------------------------------------------
def test_raising_unit_runs_once_serial(failing_units):
    fake = failing_units([1001])
    result = run_units(plan(), jobs=1)
    assert fake.calls(1001) == 1
    assert [failure.seed for failure in result.failures] == [1001]


@needs_fork
def test_raising_unit_runs_once_pool(failing_units):
    fake = failing_units([1001])
    result = run_units(plan(), jobs=2)
    assert fake.calls(1001) == 1
    assert [failure.seed for failure in result.failures] == [1001]
    assert result.stats.pool_restarts == 0


def test_exhausted_unit_is_structured_failure_not_abort(failing_units):
    failing_units([1001])
    result = run_units(plan(), jobs=1)
    assert not result.ok
    failure, = result.failures
    assert failure.seed == 1001 and failure.index == 1
    assert failure.error == "RuntimeError('seed 1001 is broken')"
    assert "execute_config" in failure.traceback
    # The rest of the sweep still completed.
    assert sum(row is not None for row in result.rows) == 2
    assert result.rows[1] is None


@needs_fork
def test_exhausted_unit_pool_mode(failing_units):
    failing_units([2001])
    result = run_units(plan(replications=4), jobs=3)
    assert [failure.seed for failure in result.failures] == [2001]
    assert sum(row is not None for row in result.rows) == 3


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_an_unpicklable_error_crosses_the_pool_as_text(failing_units,
                                                       jobs):
    # Raised in a worker and pickled back, OddError's constructor would
    # break the pool; as text it is the unit's own failure.
    fake = failing_units([1001], how="odd")
    result = run_units(plan(), jobs=jobs)
    failure, = result.failures
    assert failure.error == "OddError('x/y')"
    assert "OddError" in failure.traceback
    assert result.stats.pool_restarts == 0
    assert fake.calls(1001) == 1


@needs_fork
def test_a_raise_in_a_batched_task_fails_only_its_unit(failing_units):
    units = plan(replications=16)
    serial = run_units(units, jobs=1)
    failing_units([5001])
    pooled = run_units(units, jobs=2)
    assert pooled.stats.batched_units > 0
    assert [failure.seed for failure in pooled.failures] == [5001]
    assert pooled.rows == [None if unit.seed == 5001 else row
                           for unit, row in zip(units, serial.rows)]


def test_require_success_raises_with_failure_details(failing_units):
    failing_units([1])
    result = run_units(plan(), jobs=1)
    with pytest.raises(ExecutionError) as excinfo:
        result.require_success()
    assert "seed=1" in str(excinfo.value)
    assert excinfo.value.failures == result.failures


def test_crashed_worker_is_retried_and_recovered(failing_units):
    """A worker death is not the unit's fault: the pool is torn down,
    finished rows are kept and the rest rerun in quarantine."""
    serial = run_units(plan(replications=4), jobs=1)
    fake = failing_units([1001], how="crash-once")
    result = run_units(plan(replications=4), jobs=2)
    assert result.ok
    assert result.stats.pool_restarts == 1
    assert result.rows == serial.rows
    assert fake.calls(1001) == 2     # crashed, then quarantined


def test_persistent_crasher_fails_alone(failing_units):
    serial = run_units(plan(replications=4), jobs=1)
    fake = failing_units([1001], how="crash")
    result = run_units(plan(replications=4), jobs=2)
    failure, = result.failures
    assert failure.seed == 1001
    assert "BrokenProcessPool" in failure.error
    # Blamed alone in quarantine: one death in the shared pool, one in
    # its own, and every peer's row is the serial row.
    assert fake.calls(1001) == 2
    assert result.stats.pool_restarts == 2
    assert result.rows == [None if index == 1 else row
                           for index, row in enumerate(serial.rows)]


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
