"""Property tests: the inheritance fixpoints stop exactly in time.

``_apply_inheritance`` asks for another pass only when it re-prioritised
a transaction that waits at the protocol; it used to ask whenever it
re-prioritised anyone.  A pass reads nothing else that a pass can move,
so the pass this skips would have changed nothing.  Random small
configurations — C, Cx, PI and FMLP single-site, and the local and
global distributed architectures — run twice, once as shipped and once
under the old stop rule, and must leave the same
``priority_inherit`` / ``priority_restore`` stream (indeed the same
trace) and the same summary row.
"""

import contextlib
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.base import ConcurrencyControl
from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               TimingConfig, WorkloadConfig)
from repro.core.experiment import run_distributed, run_single_site
from repro.kernel.kernel import Kernel
from repro.trace import Tracer, tracing

_SEEDS = st.integers(min_value=0, max_value=2 ** 16)
_PRIORITY_KINDS = ("priority_inherit", "priority_restore")


@contextlib.contextmanager
def _stop_rule(old: bool, tally: Counter):
    """Run ``_apply_inheritance`` with the shipped stop rule, or with
    the old one ("anything changed"), tallying the passes the shipped
    rule ends early (``skipped``) and those it continues."""
    calls = [0]
    real_set = Kernel.set_inherited_priority
    real_apply = ConcurrencyControl._apply_inheritance

    def counting_set(kernel, process, priority):
        calls[0] += 1
        return real_set(kernel, process, priority)

    def apply(self, contributions):
        before = calls[0]
        shipped = real_apply(self, contributions)
        # The old rule: the pass called set_inherited_priority at all.
        changed = calls[0] != before
        assert changed or not shipped
        tally["skipped"] += changed and not shipped
        tally["continued"] += shipped
        return changed if old else shipped

    with mock.patch.object(Kernel, "set_inherited_priority",
                           counting_set), \
            mock.patch.object(ConcurrencyControl, "_apply_inheritance",
                              apply):
        yield


def _both_rules(run, config, tally: Counter):
    outcomes = []
    for old in (False, True):
        tracer = Tracer(capacity=10 ** 7)
        with _stop_rule(old, Counter() if old else tally), \
                tracing(tracer):
            row = run(config)
        assert tracer.emitted == len(tracer.records)
        outcomes.append((row, list(tracer.records)))
    (row, records), (old_row, old_records) = outcomes
    priority = [record for record in records
                if record[1] in _PRIORITY_KINDS]
    assert priority == [record for record in old_records
                        if record[1] in _PRIORITY_KINDS]
    assert records == old_records
    assert row == old_row
    return row


@given(protocol=st.sampled_from(["C", "Cx", "PI", "fmlp"]), seed=_SEEDS,
       n_transactions=st.integers(min_value=10, max_value=40),
       transaction_size=st.integers(min_value=2, max_value=6),
       mean_interarrival=st.sampled_from([0.5, 1.5]),
       db_size=st.sampled_from([8, 20]))
@settings(max_examples=25, deadline=None, database=None)
def _single_site_equivalence(tally, protocol, seed, n_transactions,
                             transaction_size, mean_interarrival, db_size):
    config = SingleSiteConfig(
        protocol=protocol, db_size=db_size, seed=seed,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=mean_interarrival,
                                transaction_size=transaction_size,
                                read_only_fraction=0.25))
    row = _both_rules(run_single_site, config, tally)
    assert row["processed"] == n_transactions


@given(mode=st.sampled_from(["local", "global"]), seed=_SEEDS,
       mean_interarrival=st.sampled_from([0.5, 1.0]),
       comm_delay=st.sampled_from([0.5, 2.0]),
       db_size=st.sampled_from([12, 20]))
@settings(max_examples=20, deadline=None, database=None)
def _distributed_equivalence(tally, mode, seed, mean_interarrival,
                             comm_delay, db_size):
    config = DistributedConfig(
        mode=mode, comm_delay=comm_delay, db_size=db_size, seed=seed,
        workload=WorkloadConfig(n_transactions=30,
                                mean_interarrival=mean_interarrival,
                                transaction_size=5, size_jitter=1,
                                read_only_fraction=0.3),
        timing=TimingConfig(slack_factor=8.0))
    row = _both_rules(run_distributed, config, tally)
    assert row["processed"] == 30


def test_single_site_runs_equal_under_the_old_stop_rule():
    tally: Counter = Counter()
    _single_site_equivalence(tally)
    # Not vacuous: the shipped rule both ended passes early and
    # followed chains.
    assert tally["skipped"] > 0 and tally["continued"] > 0


def test_distributed_runs_equal_under_the_old_stop_rule():
    tally: Counter = Counter()
    _distributed_equivalence(tally)
    assert tally["skipped"] > 0 and tally["continued"] > 0
