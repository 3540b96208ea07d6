"""Peak staleness is exact: the value the catalog tracks as copies
change equals a brute-force scan of every copy taken before each
change and once more at the end of the run."""

import dataclasses

import pytest

from repro.bench import SPECS
from repro.bench.figures import fault_crash_plan
from repro.dist import DistributedSystem
from repro.faults import FaultPlan

A4 = SPECS["a4"]


def brute_force_peak(config, until=None):
    """The run's summary and ``max_staleness`` at its worst instant
    just before a copy changed, or at the end (``until``, if given)."""
    system = DistributedSystem(config)
    catalog = system.catalog
    record_write = catalog.record_write
    peak = [0.0]

    def scanned(site, oid, timestamp, now=None):
        peak[0] = max(peak[0], catalog.max_staleness(system.kernel.now))
        record_write(site, oid, timestamp, now)

    catalog.record_write = scanned
    system.run(until=until)
    result = system.summary(), max(peak[0], system.max_staleness())
    system.run()  # leave no transaction body suspended
    return result


@pytest.mark.parametrize("seed", [1, 1001, 2001])
@pytest.mark.parametrize("delay", A4.values)
def test_a4_peak_equals_the_brute_force_scan(delay, seed):
    config = dataclasses.replace(A4.config(delay, None), seed=seed)
    summary, peak = brute_force_peak(config)
    assert summary["peak_staleness"] == peak > 0.0


def test_faulted_peak_equals_the_brute_force_scan():
    config = A4.config(2.0, None)
    horizon = (config.workload.n_transactions
               * config.workload.mean_interarrival)
    crashes = fault_crash_plan(config.n_sites, horizon, 30.0).crashes
    config = dataclasses.replace(config, faults=FaultPlan(
        loss_rate=0.05, duplicate_rate=0.05, crashes=crashes))
    summary, peak = brute_force_peak(config)
    assert summary["peak_staleness"] == peak > 0.0
    assert summary["fault_downtime"] > 0.0


def test_a_run_cut_while_copies_lag_counts_the_end():
    config = A4.config(10.0, None)
    summary, peak = brute_force_peak(config, until=10.0)
    assert summary["peak_staleness"] == peak > 0.0


def test_only_temporal_versions_rows_report_staleness():
    config = A4.config(0.0, None)
    untracked = dataclasses.replace(config, temporal_versions=False)
    system = DistributedSystem(untracked)
    system.run()
    assert not {"peak_staleness", "mean_apply_latency",
                "p95_apply_latency"} & set(system.summary())
