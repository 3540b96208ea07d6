"""The planned, memoising encoder against the recursive one it replaced.

``oracle_encode`` is the encoder every cache entry on disk was written
with: it re-discovers each dataclass on every node and memoises
nothing.  The shipped encoder must produce byte-identical payloads for
every config — whatever is in the memo, however sub-configs are shared
— and differs only where the old one was lossy: an unsupported leaf and
a dict-key collision now raise instead of aliasing.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (DistributedConfig, SingleSiteConfig,
                               TimingConfig, WorkloadConfig)
from repro.exec import fingerprint
from repro.exec.fingerprint import (cache_salt, config_fingerprint,
                                    config_payload)
from repro.faults.plan import FaultPlan, LinkPartition, SiteCrash
from repro.txn.manager import CostModel

from .conftest import tiny_config


def oracle_encode(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {field.name: oracle_encode(getattr(value, field.name))
                  for field in dataclasses.fields(value)
                  if field.metadata.get("fingerprint", True)}
        return {"__type__": type(value).__name__, "fields": fields}
    if isinstance(value, (list, tuple)):
        return [oracle_encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): oracle_encode(item)
                for key, item in sorted(value.items(),
                                        key=lambda kv: str(kv[0]))}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def oracle_payload(config, salt=None):
    payload = {"salt": cache_salt(salt), "config": oracle_encode(config)}
    token = fingerprint._protocol_token(config)
    if token is not None:
        payload["protocol"] = token
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ``1`` and ``1.0`` compare equal and encode differently, so numeric
# fields draw from both.
numbers = st.one_of(st.integers(1, 9),
                    st.integers(1, 9).map(float),
                    st.floats(0.5, 9.5))
workloads = st.builds(
    WorkloadConfig, n_transactions=st.integers(1, 400),
    mean_interarrival=numbers, transaction_size=st.integers(1, 12),
    size_jitter=st.integers(0, 3),
    read_only_fraction=st.sampled_from([0, 0.0, 0.25, 1, 1.0]),
    write_fraction=st.sampled_from([0.5, 1, 1.0]))
timings = st.builds(TimingConfig, slack_factor=numbers,
                    load_factor=st.sampled_from([0, 0.0, 0.5]),
                    priority_policy=st.sampled_from(["edf", "fcfs"]))
costs = st.builds(CostModel, cpu_per_object=numbers,
                  io_per_object=numbers)
options = st.sampled_from([
    (), (("victim_policy", "youngest"),),
    (("victim_policy", "none"), ("max_restarts", "3"))])
engines = st.sampled_from(["reference", "turbo"])
fault_plans = st.one_of(st.none(), st.builds(
    FaultPlan, loss_rate=st.sampled_from([0, 0.0, 0.1]),
    delay_jitter=st.sampled_from([0.0, 0.5]),
    crashes=st.lists(st.builds(
        SiteCrash, site=st.integers(0, 2), at=numbers,
        down_for=numbers), max_size=2).map(tuple),
    partitions=st.lists(st.builds(
        LinkPartition, src=st.integers(0, 2), dst=st.integers(0, 2),
        start=numbers, until=numbers), max_size=2).map(tuple),
    rpc_timeout=st.one_of(st.none(), numbers)))
single_sites = st.builds(
    SingleSiteConfig, protocol=st.sampled_from(["C", "P", "L", "pcp"]),
    db_size=st.sampled_from([200, 200.0, 50]), workload=workloads,
    timing=timings, costs=costs, seed=st.integers(0, 5000),
    io_servers=st.one_of(st.none(), st.integers(1, 4)),
    protocol_options=options, engine=engines)
distributeds = st.builds(
    DistributedConfig, mode=st.sampled_from(["local", "global"]),
    comm_delay=numbers, workload=workloads, timing=timings,
    costs=costs, seed=st.integers(0, 5000),
    temporal_versions=st.booleans(), faults=fault_plans,
    protocol=st.sampled_from(["C", "dpcp", "nonsense"]),
    protocol_options=options, engine=engines)
configs = st.one_of(single_sites, distributeds)


@settings(max_examples=150, deadline=None)
@given(configs)
def test_payload_is_byte_identical_to_the_oracle(config):
    assert config_payload(config) == oracle_payload(config)
    assert (config_payload(config, salt="branch")
            == oracle_payload(config, salt="branch"))


@settings(max_examples=60, deadline=None)
@given(configs, st.lists(st.integers(0, 5000), min_size=1, max_size=4))
def test_replications_sharing_sub_configs_match_unshared_copies(
        config, seeds):
    """``replace(seed=...)`` shares the sub-config instances (memo
    hits); a deep rebuild shares none (equal, not identical)."""
    for seed in seeds:
        shared = dataclasses.replace(config, seed=seed)
        rebuilt = dataclasses.replace(
            shared,
            workload=dataclasses.replace(shared.workload),
            timing=dataclasses.replace(shared.timing),
            costs=dataclasses.replace(shared.costs))
        assert rebuilt.workload is not shared.workload
        expected = oracle_payload(shared)
        assert config_payload(shared) == expected
        assert config_payload(rebuilt) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(configs, min_size=2, max_size=6))
def test_memo_eviction_changes_no_payload(batch):
    """A memo too small for one config is dropped and refilled in the
    middle of every encoding."""
    expected = [oracle_payload(config) for config in batch]
    limit = fingerprint.MEMO_LIMIT
    fingerprint.MEMO_LIMIT = 2
    try:
        for _ in range(2):
            assert [config_payload(config)
                    for config in batch] == expected
            assert len(fingerprint._MEMO) <= 2
    finally:
        fingerprint.MEMO_LIMIT = limit


def test_memo_is_by_identity_not_equality():
    integral = tiny_config()
    floating = dataclasses.replace(
        integral, workload=dataclasses.replace(
            integral.workload, mean_interarrival=10))
    assert integral.workload == floating.workload       # 10.0 == 10
    assert config_payload(integral) == oracle_payload(integral)
    assert config_payload(floating) == oracle_payload(floating)
    assert config_payload(integral) != config_payload(floating)


@dataclasses.dataclass(frozen=True)
class FrozenShell:
    """Frozen, but holding a list: not safe to memoise."""

    items: list
    seed: int = 1


@dataclasses.dataclass
class Mutable:
    size: int = 1
    seed: int = 1


def test_mutable_content_is_never_memoised():
    shell = FrozenShell(items=[1, 2])
    before = config_payload(shell)
    shell.items.append(3)
    after = config_payload(shell)
    assert before != after and after == oracle_payload(shell)

    plain = Mutable()
    before = config_payload(plain)
    plain.size = 2
    assert config_payload(plain) != before
    assert config_payload(plain) == oracle_payload(plain)

    nested = FrozenShell(items=[Mutable()])
    before = config_payload(nested)
    nested.items[0].size = 5
    assert config_payload(nested) == oracle_payload(nested) != before


def test_dict_fields_encode_sorted_like_the_oracle():
    holder = FrozenShell(items=[{"b": 1, "a": (2, 3.0), 3: None}])
    assert config_payload(holder) == oracle_payload(holder)


def test_engine_field_is_still_skipped():
    turbo = dataclasses.replace(tiny_config(), engine="turbo")
    assert config_fingerprint(turbo) == config_fingerprint(tiny_config())
    assert "engine" not in config_payload(turbo)


# ---------------------------------------------------------------------
# totality: where the oracle was lossy, the encoder is loud
# ---------------------------------------------------------------------
def test_unsupported_leaf_raises_with_the_field_path():
    holder = FrozenShell(items=[1, {"deep": {3, 4}}])
    with pytest.raises(TypeError) as caught:
        config_fingerprint(holder)
    assert "FrozenShell.items[1]['deep']" in str(caught.value)
    assert "set" in str(caught.value)

    with pytest.raises(TypeError, match=r"Mutable\.size.*object"):
        config_fingerprint(Mutable(size=object()))


def test_dict_key_collision_raises_with_the_field_path():
    holder = FrozenShell(items=[{1: "int", "1": "str"}])
    # The oracle silently kept one of the two entries.
    assert json.loads(oracle_payload(holder))["config"]["fields"][
        "items"] == [{"1": "str"}]
    with pytest.raises(TypeError, match=r"FrozenShell\.items\[0\]"):
        config_fingerprint(holder)


def test_leaf_subclasses_keep_their_plain_encoding():
    import enum

    class Level(enum.IntEnum):
        HIGH = 3

    holder = Mutable(size=Level.HIGH)
    assert config_payload(holder) == oracle_payload(holder)
