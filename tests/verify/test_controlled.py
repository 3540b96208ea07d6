"""The controlled scheduler must be invisible by default.

The contract for the verification layer: installing a
SchedulerController with the DefaultChooser reproduces the kernel's
behaviour *bitwise* — same dispatch order, same fused wakes, same
summaries and metered series — because the default choice (index 0)
is exactly the entry the uncontrolled hot loop would pop, and a queue
tie's option 0 is the FIFO-among-equals waiter the priority policy
already serves.
"""

import math

import pytest

from repro.core.builder import SingleSiteSystem
from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               WorkloadConfig)
from repro.dist import DistributedSystem
from repro.kernel import (Chooser, DefaultChooser, Kernel,
                          SchedulerController)
from repro.kernel.controlled import entry_label, pending_signature
from repro.kernel.turbo import TurboKernel
from repro.resources import DiskArray
from repro.telemetry import MetricsRegistry, metering


def _config(protocol):
    return SingleSiteConfig(
        protocol=protocol, db_size=40, seed=7,
        workload=WorkloadConfig(n_transactions=30,
                                mean_interarrival=1.5,
                                transaction_size=4,
                                read_only_fraction=0.25))


def _run(protocol, controlled):
    """A run built under metering: ``(system, series, controller)``."""
    with metering(MetricsRegistry()) as registry:
        system = SingleSiteSystem(_config(protocol))
    controller = None
    if controlled:
        controller = SchedulerController(DefaultChooser())
        controller.install(system.kernel)
    system.run()
    registry.finalize()
    return system, registry.dump()["series"], controller


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
    baseline, baseline_series, _ = _run(protocol, controlled=False)
    controlled, series, controller = _run(protocol, controlled=True)
    problems = _diff(baseline.summary(), controlled.summary())
    assert not problems, (
        f"DefaultChooser perturbed protocol {protocol}:\n  "
        + "\n  ".join(problems))
    # The controlled run is the shipped run: it fuses the same wakes
    # and samples the same series.
    assert controlled.kernel.fused_wakes == baseline.kernel.fused_wakes > 0
    assert series == baseline_series
    # The run went through the controlled path and saw real ties.
    assert controller.dispatched > 0
    assert controller.trail


def test_controller_records_choice_trail():
    _, _, controller = _run("C", controlled=True)
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


class _Pick(Chooser):
    """Take alternative ``index`` at every choice point of ``kind``
    (negative counts from the end) and the default at the others."""

    def __init__(self, kind, index):
        self.kind = kind
        self.index = index

    def choose(self, kind, time, labels):
        return self.index % len(labels) if kind == self.kind else 0


def _tied_callbacks(kernel):
    ran = []
    kernel.at(1.0, lambda: ran.append("first"))
    kernel.at(1.0, lambda: ran.append("second"))
    return ran


def test_step_dispatches_the_choosers_pick():
    kernel = Kernel()
    controller = SchedulerController(_Pick("event", -1)).install(kernel)
    ran = _tied_callbacks(kernel)
    assert kernel.step() is True
    assert ran == ["second"]
    assert [record.kind for record in controller.trail] == ["event"]
    assert kernel.step() is True and kernel.step() is False
    assert ran == ["second", "first"] and len(controller.trail) == 1


def test_a_turbo_kernel_takes_the_controlled_arm():
    kernel = TurboKernel()
    controller = SchedulerController(_Pick("event", -1)).install(kernel)
    ran = _tied_callbacks(kernel)
    assert kernel.run() == 1.0
    assert ran == ["second", "first"]
    assert controller.dispatched == 2 and len(controller.trail) == 1


def test_a_priority_queue_tie_is_a_choice_point():
    kernel = Kernel()
    disks = DiskArray(kernel, servers=1, policy="priority")
    controller = SchedulerController(_Pick("queue", 1)).install(kernel)
    served = []

    def user(name):
        yield disks.use(1.0)
        served.append(name)

    for name in ("holder", "w0", "w1", "w2"):
        kernel.spawn(user(name), name)
    kernel.run()
    ties = [record for record in controller.trail if record.kind == "queue"]
    assert [(tie.time, tie.arity, tie.chosen) for tie in ties] == [
        (1.0, 3, 1), (2.0, 2, 1)]
    assert ties[0].labels == ("waiter:w0", "waiter:w1", "waiter:w2")
    assert served == ["holder", "w1", "w2", "w0"]
