"""The controlled scheduler must be invisible by default.

The ISSUE contract for the verification layer: installing a
SchedulerController with the DefaultChooser reproduces today's kernel
behaviour *bitwise* — same dispatch order, same summaries — because
the default choice (index 0) is exactly the entry the uncontrolled
hot loop would pop, and a queue tie's option 0 is the FIFO-among-
equals waiter the priority policy already serves.
"""

import math

import pytest

from repro.core.builder import SingleSiteSystem
from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               WorkloadConfig)
from repro.dist import DistributedSystem
from repro.kernel import DefaultChooser, SchedulerController
from repro.kernel.controlled import entry_label, pending_signature


def _config(protocol):
    return SingleSiteConfig(
        protocol=protocol, db_size=40, seed=7,
        workload=WorkloadConfig(n_transactions=30,
                                mean_interarrival=1.5,
                                transaction_size=4,
                                read_only_fraction=0.25))


def _summary(protocol, controlled):
    system = SingleSiteSystem(_config(protocol))
    controller = None
    if controlled:
        controller = SchedulerController(DefaultChooser())
        controller.install(system.kernel)
    system.run()
    summary = system.summary()
    return summary, controller


def _diff(expected, actual):
    problems = []
    for key in sorted(set(expected) | set(actual)):
        a, b = expected.get(key), actual.get(key)
        same = (a == b or (isinstance(a, float) and isinstance(b, float)
                           and math.isnan(a) and math.isnan(b)))
        if not same:
            problems.append(f"{key}: uncontrolled {a!r} != "
                            f"controlled {b!r}")
    return problems


@pytest.mark.parametrize("protocol", ["C", "P", "L"])
def test_default_chooser_is_bitwise_invisible(protocol):
    baseline, _ = _summary(protocol, controlled=False)
    controlled, controller = _summary(protocol, controlled=True)
    problems = _diff(baseline, controlled)
    assert not problems, (
        f"DefaultChooser perturbed protocol {protocol}:\n  "
        + "\n  ".join(problems))
    # The run went through the controlled path and saw real ties.
    assert controller.dispatched > 0


def test_controller_records_choice_trail():
    _, controller = _summary("C", controlled=True)
    for record in controller.trail:
        assert record.arity >= 2
        assert 0 <= record.chosen < record.arity
        assert record.kind in ("event", "queue")
        as_dict = record.as_dict()
        assert as_dict["labels"][as_dict["chosen"]] in record.labels


def _deliveries_in_flight():
    """A global-mode system stepped until network deliveries are
    queued (the caller finishes the run: an abandoned one would score
    its parked transactions at teardown)."""
    system = DistributedSystem(DistributedConfig(
        mode="global", seed=7, comm_delay=2.0, db_size=30,
        workload=WorkloadConfig(n_transactions=6, mean_interarrival=1.0,
                                transaction_size=3)))
    kernel = system.kernel
    while system.network.messages_sent < 3:
        assert kernel.step()
    return system


def test_entry_labels_are_address_free():
    single = SingleSiteSystem(_config("C"))
    distributed = _deliveries_in_flight()
    deliveries = []
    for kernel in (single.kernel, distributed.kernel):
        for entry in kernel.events.live_entries():
            label = entry_label(entry)
            assert "0x" not in label or "0xADDR" in label
            if "Network._deliver" in label:
                deliveries.append(label)
    # A message in flight is a partial whose repr carries the message.
    assert deliveries
    assert all("sender_site=" in label for label in deliveries)
    distributed.run()


def test_pending_signature_excludes_sequence_numbers():
    first = SingleSiteSystem(_config("C"))
    sig_first = pending_signature(first.kernel.events)
    second = SingleSiteSystem(_config("C"))
    sig_second = pending_signature(second.kernel.events)
    assert sig_first == sig_second
    assert sig_first  # the arrival timers are pending


def test_reinstalling_controller_rejects_double_run():
    system = SingleSiteSystem(_config("C"))
    controller = SchedulerController(DefaultChooser())
    controller.install(system.kernel)
    assert system.kernel.controller is controller
