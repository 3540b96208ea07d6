"""Protocol-table integration with configs, builders and fingerprints."""

import dataclasses
import json

import pytest

from repro.core import (DistributedConfig, SingleSiteConfig,
                        SingleSiteSystem, WorkloadConfig)
from repro.dist import DistributedSystem
from repro.exec.fingerprint import (CODE_VERSION, config_fingerprint,
                                    config_payload)
from repro.protocols import REGISTRY
from repro.txn.manager import CostModel


def unknown_message(name):
    with pytest.raises(ValueError) as err:
        REGISTRY.resolve(name)
    return str(err.value)


def small_config(protocol, **overrides):
    return SingleSiteConfig(
        protocol=protocol,
        workload=WorkloadConfig(n_transactions=10,
                                mean_interarrival=20.0),
        **overrides)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
def test_unknown_protocol_message_lists_the_registry_cast():
    config = small_config("bogus")
    with pytest.raises(ValueError) as err:
        config.validate()
    # The config error IS the table's stable message: canonical
    # names in table order, aliases sorted.
    assert str(err.value) == unknown_message("bogus")
    for name in REGISTRY.names():
        assert name in str(err.value)
    assert "2pl" in str(err.value)  # an alias, listed dynamically


def test_alias_configs_validate_and_build():
    config = small_config("pcp")  # alias for C
    config.validate()
    system = SingleSiteSystem(config)
    assert system.cc.name == "C"


def test_protocol_options_are_schema_checked():
    good = small_config("L", protocol_options=(
        ("victim_policy", "lowest_priority"),))
    good.validate()
    bad_value = small_config("L", protocol_options=(
        ("victim_policy", "everyone"),))
    with pytest.raises(ValueError, match="must be one of"):
        bad_value.validate()
    bad_key = small_config("C", protocol_options=(("nope", "1"),))
    with pytest.raises(ValueError, match="unknown option"):
        bad_key.validate()


def test_distributed_config_resolves_protocol_via_registry():
    config = DistributedConfig(mode="global", protocol="d-pcp")
    config.validate()
    with pytest.raises(ValueError) as err:
        DistributedConfig(mode="global", protocol="bogus").validate()
    assert str(err.value) == unknown_message("bogus")


def test_global_mode_rejects_victim_abort():
    # Async lock requests cannot be aborted as deadlock victims.
    config = DistributedConfig(
        mode="global", protocol="fmlp",
        protocol_options=(("victim_policy", "lowest_priority"),))
    with pytest.raises(ValueError, match="victim_policy"):
        config.validate()


@pytest.mark.parametrize("policy", ["youngest", "requester",
                                    "lowest_priority"])
def test_local_mode_rejects_victim_abort(policy):
    # A local-mode manager has no restart loop: a victim would be
    # scored as a deadline miss the moment it was chosen.
    config = DistributedConfig(
        mode="local", protocol="L",
        protocol_options=(("victim_policy", policy),))
    with pytest.raises(ValueError, match="local mode requires "
                                         "victim_policy='none'"):
        config.validate()
    with pytest.raises(ValueError, match="victim_policy"):
        DistributedSystem(config)
    dataclasses.replace(config, protocol_options=(
        ("victim_policy", "none"),)).validate()


@pytest.mark.parametrize("mode", ["local", "global"])
def test_distributed_modes_reject_io_cost(mode):
    # No distributed body does I/O, but the deadline charges
    # cpu + io per object: a non-zero cost only loosens deadlines.
    config = DistributedConfig(mode=mode,
                               costs=CostModel(io_per_object=2.0))
    with pytest.raises(ValueError, match="io_per_object == 0"):
        config.validate()
    with pytest.raises(ValueError, match="io_per_object"):
        DistributedSystem(config)
    dataclasses.replace(config, costs=CostModel(
        io_per_object=0.0)).validate()


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def test_code_version_bumped_for_the_registry_migration():
    assert CODE_VERSION == "repro-exec-v3"


def test_unresolvable_protocol_still_fingerprints():
    # Fingerprints must stay total: validation reports bad names, the
    # cache key must never raise.
    config = small_config("bogus")
    payload = json.loads(config_payload(config))
    assert payload["config"]["fields"]["protocol"] == "bogus"
    assert config_fingerprint(config)


def test_distinct_protocols_get_distinct_fingerprints():
    prints = {config_fingerprint(small_config(name))
              for name in REGISTRY.names()}
    assert len(prints) == len(REGISTRY.names())


def test_protocol_options_move_the_fingerprint():
    base = small_config("L")
    tuned = dataclasses.replace(
        base, protocol_options=(("victim_policy", "lowest_priority"),))
    assert config_fingerprint(base) != config_fingerprint(tuned)


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------
def test_package_exports_the_registry():
    import repro

    assert repro.PROTOCOL_REGISTRY is REGISTRY
