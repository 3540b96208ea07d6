"""Smoke tests for the bench sweep module (tiny configurations).

The full-resolution sweeps live in benchmarks/; these run every spec
of the table through the grid runner and its tables at the smallest
sizes that still exercise the code paths.
"""

import dataclasses

import pytest

from repro.bench import (Table, distributed_config, render, run,
                         single_site_config)
from repro.bench.figures import _fig5_config
from repro.cli import FIGURES


def test_single_site_config_is_valid():
    for protocol in ("C", "P", "L"):
        config = single_site_config(protocol, 8)
        config.validate()
        assert config.protocol == protocol
        assert config.workload.transaction_size == 8


def test_distributed_config_is_valid():
    for mode in ("local", "global"):
        config = distributed_config(mode, 2.0, 0.5)
        config.validate()
        assert config.mode == mode
        assert config.costs.io_per_object == 0.0  # memory-resident


def test_fig5_config_differs_only_in_load_and_slack():
    base = distributed_config("local", 2.0, 0.5)
    fig5 = _fig5_config("local", 2.0, 0.5, 150)
    assert fig5.workload.mean_interarrival > \
        base.workload.mean_interarrival
    assert fig5.timing.slack_factor > base.timing.slack_factor
    assert fig5.mode == base.mode


def tiny(spec):
    """``spec`` on a grid small enough for tier-1: two axis values,
    15 transactions a run."""
    def config(value, variant):
        full = spec.config(value, variant)
        return dataclasses.replace(
            full, workload=dataclasses.replace(full.workload,
                                               n_transactions=15))
    return dataclasses.replace(spec, values=spec.values[:2],
                               config=config)


@pytest.mark.parametrize("name", list(FIGURES))
def test_every_figure_runs_and_renders(name):
    spec = tiny(FIGURES[name].spec)
    series = run(spec, replications=1)
    assert len(series) == 2
    text = render(spec, series)
    for table in spec.tables:
        if isinstance(table, Table):
            # A typo'd key is found here, not at print time.
            for row in series:
                assert {key for __, key in table.columns} <= set(row)
            assert table.title in text
    assert text


def test_only_a4_samples_in_process():
    assert [name for name, figure in FIGURES.items()
            if figure.serial] == ["a4"]
