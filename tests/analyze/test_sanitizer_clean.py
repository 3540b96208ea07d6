"""The sanitizer on *correct* runs: full simulations under every
protocol and both distributed modes must produce zero violations, and
checking must not change results.  Plus the activation surface:
environment variable, context manager, explicit install."""

import os
import subprocess
import sys

import pytest

import repro.analyze.sanitizer as sanitizer_module
from repro.analyze.sanitizer import ENV_VAR, Sanitizer, sanitize
from repro.core import (DistributedConfig, SingleSiteConfig,
                        TimingConfig, WorkloadConfig, run_distributed,
                        run_single_site)
from repro.kernel import Kernel
from repro.txn import CostModel
from tests.conftest import observers

WORKLOAD = WorkloadConfig(n_transactions=60, mean_interarrival=20.0,
                          transaction_size=8, size_jitter=2)


def single_config(protocol, **protocol_options):
    return SingleSiteConfig(
        protocol=protocol, db_size=100, workload=WORKLOAD,
        timing=TimingConfig(slack_factor=6.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=2.0),
        protocol_options=tuple(protocol_options.items()), seed=7)


@pytest.mark.parametrize("protocol", ["L", "P", "PI", "C", "Cx"])
def test_single_site_run_is_violation_free(protocol):
    baseline = run_single_site(single_config(protocol))
    with sanitize(strict=True) as checker:
        checked = run_single_site(single_config(protocol))
    assert checker.clean, checker.summary()
    # Observation must not perturb the simulation.
    assert checked == baseline


def test_restarted_deadlock_victims_may_reacquire():
    # A victim released its locks and begins a fresh growing phase:
    # legal under SAN-2PL-PHASE, unlike a lock after the release point.
    with sanitize(strict=True) as checker:
        row = run_single_site(single_config("L", victim_policy="requester"))
    assert row["restarts"] > 0
    assert checker.clean, checker.summary()


@pytest.mark.parametrize("mode", ["local", "global"])
def test_distributed_run_is_violation_free(mode):
    config = DistributedConfig(
        mode=mode, n_sites=3, comm_delay=1.0, db_size=120,
        workload=dataclasses_replace(WORKLOAD, n_transactions=40),
        timing=TimingConfig(slack_factor=6.0),
        costs=CostModel(io_per_object=0.0), seed=11)
    baseline = run_distributed(config)
    with sanitize(strict=True) as checker:
        checked = run_distributed(config)
    assert checker.clean, checker.summary()
    assert checked == baseline


def dataclasses_replace(workload, **kwargs):
    import dataclasses
    return dataclasses.replace(workload, **kwargs)


# ----------------------------------------------------------------------
# activation surface
# ----------------------------------------------------------------------
def sanitizers():
    return observers(Sanitizer)


def test_no_sanitizer_by_default(unobserved):
    assert sanitizers() == []
    assert Kernel().hooks is None


@pytest.mark.parametrize("value,expected_strict", [
    ("1", True), ("record", False)])
def test_env_var_creates_a_sanitizer(unobserved, monkeypatch, value,
                                     expected_strict):
    monkeypatch.setenv(ENV_VAR, value)
    [sanitizer] = sanitizers()
    assert sanitizer.strict is expected_strict
    # Lazy singleton: every kernel reports to the same instance.
    assert sanitizers() == [sanitizer]


@pytest.mark.parametrize("value", ["", "0", "false", "off", "no"])
def test_env_var_disabled_values(unobserved, monkeypatch, value):
    monkeypatch.setenv(ENV_VAR, value)
    assert sanitizers() == []


def test_explicit_install_wins_over_environment(unobserved, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")
    [ambient] = sanitizers()
    with sanitize(strict=False) as mine:
        assert sanitizers() == [mine]
    assert sanitizers() == [ambient]


def test_sanitize_context_manager_restores_previous():
    with sanitize(strict=False) as outer:
        with sanitize() as inner:
            assert sanitizers() == [inner]
            assert inner is not outer
        assert sanitizers() == [outer]


def test_observers_compose_when_nested(unobserved):
    from repro.telemetry import metering
    from repro.trace import Tracer, tracing
    from tests.conftest import metered
    with tracing() as tracer, metering() as registry:
        with sanitize() as sanitizer:
            assert observers(Tracer) == [tracer]
            assert metered() == [registry]
            assert sanitizers() == [sanitizer]
        assert sanitizers() == []
        assert observers(Tracer) == [tracer]
    assert Kernel().hooks is None


def test_protocols_skip_hooks_entirely_when_off(unobserved):
    from repro.cc.twopl import TwoPhaseLocking
    kernel = Kernel(seed=1)
    cc = TwoPhaseLocking(kernel)
    assert kernel.hooks is None
    # The slot is the kernel's: a protocol keeps no observer of its own.
    assert not {"sanitizer", "tracer", "meter", "hooks"} & set(vars(cc))
    assert not hasattr(cc.locks, "observer")


def test_env_var_reaches_a_fresh_interpreter():
    # The CI sanitize job relies on REPRO_SANITIZE propagating through
    # process boundaries; prove a child interpreter picks it up.
    env = dict(os.environ, REPRO_SANITIZE="record",
               PYTHONPATH="src")
    code = ("from repro.kernel import Kernel; "
            "[x] = Kernel().hooks.subscribers; "
            "print(type(x).__name__, x.strict)")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=env,
                            cwd=os.path.dirname(
                                os.path.dirname(
                                    os.path.dirname(__file__))))
    assert result.stdout.strip() == "Sanitizer False", result.stderr


def test_module_reexports_the_public_api():
    import repro.analyze as analyze
    for name in ("Sanitizer", "sanitize", "LintEngine", "Violation",
                 "DEFAULT_RULES", "RULE_INDEX"):
        assert hasattr(analyze, name)
    assert sanitizer_module.ENV_VAR == "REPRO_SANITIZE"
