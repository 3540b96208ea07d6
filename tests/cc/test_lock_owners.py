"""Lock owners are transaction ids: no unobserved run hashes a
:class:`Transaction` (its ``__hash__`` is a Python-level call, an int
key hashes in C)."""

import dataclasses

import pytest

from repro.bench.figures import distributed_config, single_site_config
from repro.core.experiment import run_distributed, run_single_site
from repro.txn.transaction import Transaction


@pytest.fixture
def hash_calls(monkeypatch, unobserved):
    """Count every ``Transaction.__hash__`` call (set and dict keys
    reach it through the type's hash slot)."""
    calls = []
    real = Transaction.__hash__

    def counting(self):
        calls.append(self.tid)
        return real(self)

    monkeypatch.setattr(Transaction, "__hash__", counting)
    return calls


@pytest.mark.parametrize("protocol, options", [
    ("C", ()), ("Cx", ()), ("L", ()),
    ("P", (("victim_policy", "lowest_priority"),)),
    ("PI", ()), ("mpcp", ()), ("fmlp", ()), ("dpcp", ())])
def test_single_site_runs_hash_no_transaction(hash_calls, protocol,
                                              options):
    config = dataclasses.replace(single_site_config(protocol, 14, 60),
                                 protocol_options=options)
    row = run_single_site(config)
    assert row["cc_blocks"] > 0  # the block path ran
    if options:
        assert row["cc_deadlocks"] > 0  # and victim selection
    assert hash_calls == []


@pytest.mark.parametrize("mode", ["local", "global"])
def test_distributed_runs_hash_no_transaction(hash_calls, mode):
    row = run_distributed(distributed_config(mode, 1.0, 0.5, 40))
    assert row["cc_requests"] > 0
    assert hash_calls == []


def test_the_counter_sees_a_hash(hash_calls):
    # A counter that never fires would pass the tests above vacuously.
    {Transaction([(1, None)], 0.0, 1.0, 1.0, tid=7)}
    assert hash_calls == [7]
