"""The instrumentation seam: fan-out, the subscriber contract, and what
an unobserved system (does not) carry."""

import inspect
import pathlib
import re

import pytest

import repro
from repro.analyze.sanitizer import Sanitizer
from repro.core.builder import SingleSiteSystem
from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               WorkloadConfig)
from repro.dist.system import DistributedSystem
from repro.kernel import Delay, Kernel
from repro.kernel.hooks import HOOKS, Hooks, observing
from repro.telemetry.probes import probes
from repro.telemetry.registry import MetricsRegistry
from repro.trace.tracer import Tracer


def _subscribers():
    return [Tracer(), Sanitizer(), *probes(MetricsRegistry())]


# ----------------------------------------------------------------------
# fan-out
# ----------------------------------------------------------------------
class _Log:
    def __init__(self, log, name):
        self.log, self.name = log, name

    def txn_restart(self, now, txn):
        self.log.append((self.name, now, txn))


def test_fan_out_is_built_once_per_hook():
    log = []
    first, second = _Log(log, "first"), _Log(log, "second")
    alone = Hooks((first,))
    # One subscriber: the hook *is* its bound method, no indirection.
    assert alone.txn_restart == first.txn_restart
    both = Hooks((first, second))
    both.txn_restart(1.0, "T")
    assert log == [("first", 1.0, "T"), ("second", 1.0, "T")]
    # A hook nobody implements is one shared no-op, whatever it is sent.
    assert both.lock_grant is alone.msg_send
    assert both.lock_grant(0.0, None, None, 1, "W", None) is None


def test_every_hook_has_a_subscriber_and_every_subscriber_conforms():
    """HOOKS is the contract: each shipped subscriber method named after
    a hook takes exactly the documented arguments, and no hook is dead
    in either direction: each has a subscriber and a firing site."""
    implemented = set()
    for subscriber in _subscribers():
        for name, signature in HOOKS.items():
            method = getattr(subscriber, name, None)
            if method is None:
                continue
            implemented.add(name)
            documented = [part.split("=")[0].strip()
                          for part in signature.strip("()").split(",")]
            taken = list(inspect.signature(method).parameters)
            assert len(taken) == len(documented), (
                f"{type(subscriber).__name__}.{name}{tuple(taken)} "
                f"against {signature}")
            defaults = [part.strip() for part in
                        signature.strip("()").split(",") if "=" in part]
            assert len(defaults) == sum(
                parameter.default is not parameter.empty
                for parameter in
                inspect.signature(method).parameters.values()), name
    assert implemented == set(HOOKS)
    fired = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        fired.update(re.findall(r"\bhooks\.(\w+)\(", path.read_text()))
    assert set(HOOKS) - fired == set()


def test_samplers_are_called_once_per_window_crossing():
    calls = []

    class Sampler:
        due = 5.0

        def sample_due(self):
            return self.due

        def kernel_sample(self, now, kernel):
            calls.append(now)
            self.due += 5.0
            return self.due

    def ticker():
        for __ in range(12):
            yield Delay(1.0)

    kernel = Kernel(hooks=Hooks((Sampler(),)))
    kernel.spawn(ticker(), "ticker")
    kernel.run()
    assert calls == [5.0, 10.0]
    assert Hooks(()).sample_due() == float("inf")
    with pytest.raises(ValueError, match="at most one"):
        Hooks((Sampler(), Sampler()))


def test_explicit_hooks_win_over_the_activation():
    mine = Hooks((Tracer(),))
    with observing(Tracer()):
        assert Kernel(hooks=mine).hooks is mine


# ----------------------------------------------------------------------
# an unobserved system holds no observer anywhere
# ----------------------------------------------------------------------
_OBSERVERS = (Hooks, MetricsRegistry,
              *(type(subscriber) for subscriber in _subscribers()))


def _reachable(root):
    """Every object reachable from ``root`` through attributes, slots
    and containers, staying inside ``repro``'s own classes."""
    seen, stack = {}, [root]
    while stack:
        thing = stack.pop()
        if id(thing) in seen:
            continue
        seen[id(thing)] = thing
        if isinstance(thing, dict):
            stack.extend(thing.keys())
            stack.extend(thing.values())
        elif isinstance(thing, (list, tuple, set, frozenset)):
            stack.extend(thing)
        elif type(thing).__module__.startswith("repro."):
            stack.extend(vars(thing).values()
                         if hasattr(thing, "__dict__") else ())
            for cls in type(thing).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(thing, slot):
                        stack.append(getattr(thing, slot))
    return seen.values()


@pytest.mark.parametrize("build", [
    lambda: SingleSiteSystem(SingleSiteConfig(
        protocol="C", workload=WorkloadConfig(n_transactions=5))),
    lambda: DistributedSystem(DistributedConfig(
        mode="global", workload=WorkloadConfig(n_transactions=5))),
    lambda: DistributedSystem(DistributedConfig(
        mode="local", workload=WorkloadConfig(n_transactions=5))),
], ids=["single-site", "global", "local"])
def test_unobserved_system_holds_no_observer(unobserved, build):
    system = build()
    assert system.kernel.hooks is None
    things = list(_reachable(system))
    assert len(things) > 50          # the walk really went somewhere
    held = [thing for thing in things if isinstance(thing, _OBSERVERS)]
    assert held == []
    # ... and the walk does find them when they are there.
    with observing(*_subscribers()):
        observed = build()
    kinds = {type(thing) for thing in _reachable(observed)}
    assert set(_OBSERVERS) <= kinds
    # Only the kernel refers to the slot; components reach it through
    # their kernel.
    model = tuple(f"repro.{layer}." for layer in (
        "kernel", "cc", "db", "dist", "txn", "resources", "core"))
    owners = [thing for thing in _reachable(observed)
              if type(thing).__module__.startswith(model)
              and hasattr(thing, "__dict__")
              and any(isinstance(value, _OBSERVERS)
                      for value in vars(thing).values())
              and not isinstance(thing, Hooks)]
    assert owners == [observed.kernel]
