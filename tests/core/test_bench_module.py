"""The bench sweep module: every spec through the grid runner and its
tables on a tiny grid, and every claimed spec as its command runs it
at 2 replications — its claims hold, read keys its rows have, and fail
when the compared columns are swapped.
"""

import dataclasses

import pytest

from repro.bench import (Table, distributed_config, render, run,
                         single_site_config, verdicts)
from repro.bench.figures import _fig5_config
from repro.cli import FIGURES, ExecOptions
from repro.exec import ResultCache, session_counters

CLAIMED = [name for name, figure in FIGURES.items()
           if figure.spec.claims]


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
    15 transactions a run, and no claims (they name values the cut
    grid lacks)."""
    def config(value, variant):
        full = spec.config(value, variant)
        return dataclasses.replace(
            full, workload=dataclasses.replace(full.workload,
                                               n_transactions=15))
    return dataclasses.replace(spec, values=spec.values[:2],
                               config=config, claims=())


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


@pytest.mark.parametrize("name", list(FIGURES))
def test_every_figure_runs_on_the_engine(name):
    # Every unit goes through the engine and its cache: a second pass
    # on one cache computes nothing.
    figure = dataclasses.replace(FIGURES[name],
                                 spec=tiny(FIGURES[name].spec))
    opts = ExecOptions(cache=ResultCache(None))
    computed = []
    for __ in range(2):
        before = session_counters()["computed"]
        figure.render(1, opts)
        computed.append(session_counters()["computed"] - before)
    assert computed[0] > 0
    assert computed[1] == 0


@pytest.mark.parametrize("name", CLAIMED)
def test_the_paper_claims_hold(claimed, name):
    lines, held = verdicts(FIGURES[name].spec, claimed[name])
    assert held, "\n".join(lines)


class Reads(dict):
    """A row that records the keys a claim reads; a missing one reads
    as 0, so the test names the claim rather than raise."""

    def __init__(self, row, reads):
        super().__init__(row)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return self.get(key, 0.0)


@pytest.mark.parametrize("name", CLAIMED)
def test_every_claim_reads_keys_its_rows_have(claimed, name):
    spec, series = FIGURES[name].spec, claimed[name]
    for claim in spec.claims:
        reads = set()
        claim.holds({value: Reads(row, reads)
                     for value, row in zip(spec.values, series)})
        assert reads and reads <= set().union(*series), claim.name


def swapped(spec, series, one, other):
    """``series`` with the ``one`` and ``other`` columns exchanged and
    the derived cells recomputed."""
    names = {one: other, other: one}
    rows = []
    for row in series:
        row = {"_".join(names.get(part, part) for part in key.split("_")):
               value for key, value in row.items()}
        if spec.derive is not None:
            spec.derive(row)
        rows.append(row)
    return rows


@pytest.mark.parametrize("name, one, other", [
    ("fig2", "C", "L"), ("fig3", "C", "L"), ("fig4", "local", "global"),
    ("fig5", "local", "global"), ("fig6", "local", "global")])
def test_swapping_the_compared_columns_fails_a_claim(claimed, name, one,
                                                     other):
    spec = FIGURES[name].spec
    assert not verdicts(spec, swapped(spec, claimed[name], one, other))[1]


def test_doubling_the_model_fails_both_budget_claims(claimed,
                                                     monkeypatch):
    from repro.bench import figures
    real = figures.predict_summary
    monkeypatch.setattr(figures, "predict_summary", lambda config: {
        key: 2.0 * value for key, value in real(config).items()})
    spec = FIGURES["model"].spec
    rows = [dict(row) for row in claimed["model"]]
    for row in rows:
        spec.derive(row)
    assert [line.split(":")[0] for line in verdicts(spec, rows)[0]] == \
        ["[FAIL] calibrated regime", "[FAIL] whole grid"]


@pytest.mark.parametrize("error", (20.0, -20.0))
def test_a_peak_off_by_20_at_delay_10_fails_a4(claimed, error):
    # A staleness tracker that misreads the delay-10 peak either way.
    spec = FIGURES["a4"].spec
    rows = [dict(row) for row in claimed["a4"]]
    rows[spec.values.index(10.0)]["peak_staleness"] += error
    assert [line for line in verdicts(spec, rows)[0]
            if line.startswith("[FAIL]")] == [
        "[FAIL] peak staleness is comparable: lock contention at the "
        "applying site dominates it [|peak at delay 10 - delay 0| "
        "<= 15]"]
