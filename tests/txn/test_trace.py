"""Workload trace export/import round trips."""

import io
import json

import pytest

from repro.kernel.rng import RngStreams
from repro.txn import WorkloadGenerator
from repro.txn.trace import (TraceFormatError, dump_schedule,
                             load_schedule, spec_from_dict,
                             spec_to_dict)


def sample_schedule():
    generator = WorkloadGenerator(RngStreams(3), db_size=50,
                                  mean_interarrival=4.0,
                                  transaction_size=3,
                                  n_transactions=25,
                                  read_only_fraction=0.4,
                                  write_fraction=0.7)
    return generator.generate()


def test_round_trip_through_memory():
    schedule = sample_schedule()
    buffer = io.StringIO()
    dump_schedule(schedule, buffer)
    buffer.seek(0)
    assert load_schedule(buffer) == schedule


def test_round_trip_through_file(tmp_path):
    schedule = sample_schedule()
    path = str(tmp_path / "trace.json")
    dump_schedule(schedule, path)
    assert load_schedule(path) == schedule


def test_spec_dict_round_trip_preserves_everything():
    for spec in sample_schedule():
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_modes_serialised_as_codes():
    spec = sample_schedule()[0]
    document = spec_to_dict(spec)
    for __, code in document["operations"]:
        assert code in ("r", "w")


def test_unknown_version_rejected():
    buffer = io.StringIO(json.dumps({"version": 99, "specs": []}))
    with pytest.raises(TraceFormatError, match="version"):
        load_schedule(buffer)


def test_malformed_root_rejected():
    with pytest.raises(TraceFormatError):
        load_schedule(io.StringIO("[]"))
    with pytest.raises(TraceFormatError, match="specs"):
        load_schedule(io.StringIO(json.dumps({"version": 1})))


def test_malformed_spec_rejected():
    document = {"version": 1,
                "specs": [{"arrival": 1.0, "operations": [[1, "x"]]}]}
    with pytest.raises(TraceFormatError, match="malformed"):
        load_schedule(io.StringIO(json.dumps(document)))


def test_unordered_arrivals_rejected():
    specs = [spec_to_dict(spec) for spec in sample_schedule()]
    specs.reverse()
    buffer = io.StringIO(json.dumps({"version": 1, "specs": specs}))
    with pytest.raises(TraceFormatError, match="non-decreasing"):
        load_schedule(buffer)


def test_loaded_schedule_replays_identically(tmp_path):
    from repro.core import SingleSiteConfig, SingleSiteSystem

    schedule = sample_schedule()
    path = str(tmp_path / "trace.json")
    dump_schedule(schedule, path)
    config = SingleSiteConfig(protocol="C", db_size=50, seed=9)
    direct = SingleSiteSystem(config, schedule=schedule)
    replayed = SingleSiteSystem(config, schedule=load_schedule(path))
    assert direct.run().summary() == replayed.run().summary()
