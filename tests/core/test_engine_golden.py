"""The cross-engine bitwise contract: turbo == reference, key by key.

Every tier-1 golden scenario — all five paper protocols, the
multiprocessor suite (mpcp/fmlp single-site, dpcp global), both
distributed modes, and the faulted run — must produce a summary
**bitwise identical** to the reference-engine golden when executed on
the turbo engine.  This is the contract that makes engine choice an
operational knob instead of a scientific one: any divergence in any
key fails here with the key named.

The engine is injected two ways, matching the two production paths:

- via the config's ``engine`` field (what the exec layer ships to
  pool workers), and
- via ``REPRO_ENGINE`` (what the CI engine job exports), checked once
  over a representative scenario pair.
"""

import dataclasses
import os

import pytest

from repro.kernel.turbo import ENV_ENGINE, TurboKernel, active_engine, \
    make_kernel

from .golden_scenarios import SCENARIOS, load_golden, run_scenario
from .test_golden_summaries import _diff


def _run_turbo(name: str) -> dict:
    """Run a golden scenario with the turbo engine forced via env."""
    previous = os.environ.get(ENV_ENGINE)
    os.environ[ENV_ENGINE] = "turbo"
    try:
        return run_scenario(name)
    finally:
        if previous is None:
            del os.environ[ENV_ENGINE]
        else:
            os.environ[ENV_ENGINE] = previous


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_turbo_summary_matches_reference_golden(name):
    problems = _diff(load_golden(name), _run_turbo(name))
    assert not problems, (
        f"turbo engine drifted from the reference golden on {name}:\n  "
        + "\n  ".join(problems))


# Engine *selection* is only observable on an unobserved kernel: the
# sanitized CI job exports REPRO_SANITIZE=1 over the whole suite, and
# an ambient sanitizer forces the reference engine (which is what the
# last test here checks on purpose).

def test_engine_config_field_reaches_the_kernel(monkeypatch,
                                                unobserved):
    # The env override (CI exports REPRO_ENGINE=turbo over the whole
    # suite) must not leak into this test of the *config* path.
    monkeypatch.delenv(ENV_ENGINE, raising=False)
    from repro.core.builder import SingleSiteSystem
    from repro.core.config import SingleSiteConfig
    system = SingleSiteSystem(SingleSiteConfig(engine="turbo"))
    assert isinstance(system.kernel, TurboKernel)
    assert active_engine(system.kernel) == "turbo"
    reference = SingleSiteSystem(SingleSiteConfig())
    assert active_engine(reference.kernel) == "reference"


def test_env_var_overrides_the_config_field(monkeypatch, unobserved):
    from repro.core.builder import SingleSiteSystem
    from repro.core.config import SingleSiteConfig
    monkeypatch.setenv(ENV_ENGINE, "turbo")
    assert isinstance(
        SingleSiteSystem(SingleSiteConfig()).kernel, TurboKernel)
    monkeypatch.setenv(ENV_ENGINE, "reference")
    forced = SingleSiteSystem(SingleSiteConfig(engine="turbo"))
    assert active_engine(forced.kernel) == "reference"


def test_engine_config_field_matches_env_forcing():
    """The two injection paths are interchangeable: a config-selected
    turbo run equals an env-forced turbo run equals the golden."""
    from repro.core.config import SingleSiteConfig, WorkloadConfig
    from repro.core.experiment import run_single_site
    config = SingleSiteConfig(
        protocol="C", db_size=120, seed=11,
        workload=WorkloadConfig(n_transactions=80, mean_interarrival=2.0,
                                transaction_size=6, size_jitter=2,
                                read_only_fraction=0.25))
    via_config = run_single_site(
        dataclasses.replace(config, engine="turbo"))
    problems = _diff(load_golden("single_site_pcp"), via_config)
    assert not problems, "\n  ".join(problems)


def test_unknown_engine_is_rejected(monkeypatch):
    monkeypatch.delenv(ENV_ENGINE, raising=False)
    from repro.core.config import SingleSiteConfig
    with pytest.raises(ValueError, match="unknown engine"):
        SingleSiteConfig(engine="warp").validate()
    with pytest.raises(ValueError, match="unknown engine"):
        make_kernel(engine="warp")
    monkeypatch.setenv(ENV_ENGINE, "warp")
    with pytest.raises(ValueError, match="unknown engine"):
        make_kernel(engine="reference")


def test_instrumentation_forces_the_reference_engine(unobserved):
    """Traced/metered/sanitized runs silently fall back to reference
    (their instrumentation contract is defined on the reference
    loop); the fallback is observable via ``active_engine`` only —
    results are identical either way."""
    from repro.telemetry.registry import metering

    assert isinstance(make_kernel(engine="turbo"), TurboKernel)
    with metering():
        assert active_engine(make_kernel(engine="turbo")) == "reference"
    assert isinstance(make_kernel(engine="turbo"), TurboKernel)
