"""Property tests: the turbo engine is bitwise-equal to the reference.

Two layers of evidence, both randomised:

* **Queue level** — random schedule / cancel interleavings driven
  through the reference tuple heap and the turbo calendar produce the
  identical dispatch sequence.
* **System level** — random small workload configs run end-to-end
  under both engines produce the identical summary dict, key by key.
  This is the golden-scenario contract extended from 11 pinned points
  to the whole (small) config space.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.events import EventQueue
from repro.kernel.turbo.calendar import CalendarEventQueue


class _Recorder:
    """Callback factory whose call log is the comparison artifact."""

    def __init__(self):
        self.log = []

    def tagged(self, tag):
        return lambda: self.log.append(tag)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"),
                  st.floats(min_value=0.0, max_value=50.0,
                            allow_nan=False),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("cancel"),
                  st.integers(min_value=0, max_value=200),
                  st.just(0)),
    ),
    max_size=60)


def _drive(queue, ops, recorder):
    """Apply one op sequence, then drain, invoking every callback."""
    handles = []
    for index, (op, value, extra) in enumerate(ops):
        if op == "schedule":
            handles.append(queue.schedule(
                value, recorder.tagged(("s", index)), key=float(extra)))
        elif handles:
            handle = handles[value % len(handles)]
            if handle is not None:
                queue.cancel(handle)
                handles[value % len(handles)] = None
    times = []
    while queue:
        event = queue.pop()
        times.append(event.time)
        event.callback()
    return times


@given(_OPS)
@settings(max_examples=60, deadline=None)
def test_calendar_dispatch_sequence_matches_reference(ops):
    reference, turbo = _Recorder(), _Recorder()
    reference_times = _drive(EventQueue(), ops, reference)
    calendar_times = _drive(CalendarEventQueue(), ops, turbo)
    assert reference.log == turbo.log
    assert calendar_times == reference_times == sorted(reference_times)


@given(st.lists(st.floats(min_value=0.0, max_value=30.0,
                          allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_calendar_pop_order_matches_reference_exactly(times):
    def popped(queue):
        for time in times:
            queue.schedule(time, lambda: None)
        order = []
        while queue:
            event = queue.pop()
            order.append((event.time, event.seq))
        return order

    assert popped(CalendarEventQueue()) == popped(EventQueue())


def _run_both(config):
    from repro.core.experiment import run_single_site
    reference = run_single_site(
        dataclasses.replace(config, engine="reference"))
    turbo = run_single_site(dataclasses.replace(config, engine="turbo"))
    return reference, turbo


@given(protocol=st.sampled_from(["C", "L", "P", "PI", "Cx",
                                 "mpcp", "fmlp"]),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       n_transactions=st.integers(min_value=5, max_value=25),
       transaction_size=st.integers(min_value=2, max_value=5),
       read_only=st.sampled_from([0.0, 0.25, 0.5]))
@settings(max_examples=12, deadline=None)
def test_single_site_summaries_identical_across_engines(
        protocol, seed, n_transactions, transaction_size, read_only):
    from repro.core.config import SingleSiteConfig, WorkloadConfig
    config = SingleSiteConfig(
        protocol=protocol, db_size=60, seed=seed,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=3.0,
                                transaction_size=transaction_size,
                                read_only_fraction=read_only))
    reference, turbo = _run_both(config)
    assert turbo == reference


@given(mode=st.sampled_from(["local", "global"]),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       faulted=st.booleans())
@settings(max_examples=6, deadline=None)
def test_distributed_summaries_identical_across_engines(
        mode, seed, faulted):
    from repro.core.config import (DistributedConfig, TimingConfig,
                                   WorkloadConfig)
    from repro.core.experiment import run_distributed
    config = DistributedConfig(
        mode=mode, comm_delay=1.0, db_size=60, seed=seed,
        workload=WorkloadConfig(n_transactions=20,
                                mean_interarrival=4.0,
                                transaction_size=3),
        timing=TimingConfig(slack_factor=10.0))
    if faulted:
        from repro.faults.plan import FaultPlan
        config = dataclasses.replace(
            config, faults=FaultPlan(loss_rate=0.05, delay_jitter=0.3))
    reference = run_distributed(
        dataclasses.replace(config, engine="reference"))
    turbo = run_distributed(dataclasses.replace(config, engine="turbo"))
    assert turbo == reference
