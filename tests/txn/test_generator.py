"""Workload generator: distributions, mixes, placement, determinism."""

import pytest

from repro.db.locks import LockMode
from repro.db.replication import ReplicaCatalog
from repro.kernel.rng import RngStreams
from repro.txn import (PeriodicStream, TransactionType, WorkloadGenerator,
                       merge_schedules)
from repro.txn.generator import TransactionSpec


def make_generator(**overrides):
    defaults = dict(rng=RngStreams(1), db_size=100, mean_interarrival=5.0,
                    transaction_size=4, n_transactions=50)
    defaults.update(overrides)
    return WorkloadGenerator(**defaults)


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_generator(read_only_fraction=1.5)
    with pytest.raises(ValueError):
        make_generator(write_fraction=0.0)
    with pytest.raises(ValueError):
        make_generator(transaction_size=0)
    with pytest.raises(ValueError):
        make_generator(transaction_size=90, size_jitter=20)
    # Both used to surface only at a draw: the first inside
    # RngStreams.exponential, the second as "empty range for randrange".
    for mean in (0.0, -1.0):
        with pytest.raises(ValueError, match="mean_interarrival"):
            make_generator(mean_interarrival=mean)
    with pytest.raises(ValueError, match="size_jitter"):
        make_generator(size_jitter=-1)


def test_generates_requested_count_with_increasing_arrivals():
    specs = make_generator().generate()
    assert len(specs) == 50
    arrivals = [spec.arrival for spec in specs]
    assert arrivals == sorted(arrivals)
    assert all(arrival > 0 for arrival in arrivals)


def test_same_seed_reproduces_schedule():
    first = make_generator(rng=RngStreams(9)).generate()
    second = make_generator(rng=RngStreams(9)).generate()
    assert first == second


def test_different_seed_changes_schedule():
    first = make_generator(rng=RngStreams(1)).generate()
    second = make_generator(rng=RngStreams(2)).generate()
    assert first != second


def test_mean_interarrival_roughly_respected():
    specs = make_generator(n_transactions=2000,
                           mean_interarrival=5.0).generate()
    mean = specs[-1].arrival / len(specs)
    assert 4.5 < mean < 5.5


def test_fixed_size_without_jitter():
    specs = make_generator(size_jitter=0).generate()
    assert all(spec.size == 4 for spec in specs)


def test_jitter_spreads_sizes_within_bounds():
    specs = make_generator(transaction_size=6, size_jitter=2,
                           n_transactions=300).generate()
    sizes = {spec.size for spec in specs}
    assert sizes <= {4, 5, 6, 7, 8}
    assert len(sizes) > 1


def test_objects_unique_within_transaction():
    specs = make_generator(n_transactions=200).generate()
    for spec in specs:
        oids = [oid for oid, __ in spec.operations]
        assert len(oids) == len(set(oids))


def test_all_update_when_read_only_fraction_zero():
    specs = make_generator(read_only_fraction=0.0).generate()
    assert all(spec.txn_type is TransactionType.UPDATE for spec in specs)


def test_read_only_fraction_respected():
    specs = make_generator(read_only_fraction=0.5,
                           n_transactions=2000).generate()
    fraction = sum(spec.txn_type is TransactionType.READ_ONLY
                   for spec in specs) / len(specs)
    assert 0.45 < fraction < 0.55


def test_read_only_specs_have_only_reads():
    specs = make_generator(read_only_fraction=1.0).generate()
    for spec in specs:
        assert all(mode is LockMode.READ for __, mode in spec.operations)


def test_update_specs_have_at_least_one_write():
    specs = make_generator(write_fraction=0.25,
                           n_transactions=300).generate()
    for spec in specs:
        assert any(mode is LockMode.WRITE for __, mode in spec.operations)


def test_write_fraction_controls_write_share():
    specs = make_generator(write_fraction=0.5, transaction_size=8,
                           n_transactions=500).generate()
    writes = sum(sum(1 for __, mode in spec.operations
                     if mode is LockMode.WRITE) for spec in specs)
    total = sum(spec.size for spec in specs)
    assert 0.4 < writes / total < 0.6


def test_catalog_placement_keeps_writes_on_home_partition():
    catalog = ReplicaCatalog(db_size=90, n_sites=3)
    generator = make_generator(db_size=90, n_sites=3, catalog=catalog,
                               read_only_fraction=0.3,
                               n_transactions=300)
    for spec in generator.generate():
        if spec.txn_type is TransactionType.UPDATE:
            for oid, mode in spec.operations:
                if mode is LockMode.WRITE:
                    assert catalog.primary_site(oid) == spec.site


def test_catalog_site_mismatch_rejected():
    catalog = ReplicaCatalog(db_size=90, n_sites=3)
    with pytest.raises(ValueError, match="sites"):
        make_generator(db_size=90, n_sites=2, catalog=catalog)


def test_sites_used_for_read_only_spread():
    catalog = ReplicaCatalog(db_size=90, n_sites=3)
    generator = make_generator(db_size=90, n_sites=3, catalog=catalog,
                               read_only_fraction=1.0,
                               n_transactions=300)
    sites = {spec.site for spec in generator.generate()}
    assert sites == {0, 1, 2}


# ----------------------------------------------------------------------
# periodic streams
# ----------------------------------------------------------------------
def test_periodic_stream_releases_at_period_boundaries():
    stream = PeriodicStream([(1, LockMode.WRITE)], period=10.0,
                            first_release=2.0)
    specs = stream.releases(horizon=35.0)
    assert [spec.arrival for spec in specs] == [2.0, 12.0, 22.0, 32.0]
    assert all(spec.periodic for spec in specs)


def test_periodic_stream_validation():
    with pytest.raises(ValueError):
        PeriodicStream([(1, LockMode.WRITE)], period=0.0)
    with pytest.raises(ValueError):
        PeriodicStream([], period=5.0)


def test_merge_schedules_orders_by_arrival():
    a = [TransactionSpec(5.0, ((1, LockMode.READ),)),
         TransactionSpec(15.0, ((1, LockMode.READ),))]
    b = [TransactionSpec(1.0, ((2, LockMode.READ),)),
         TransactionSpec(10.0, ((2, LockMode.READ),))]
    merged = merge_schedules(a, b)
    assert [spec.arrival for spec in merged] == [1.0, 5.0, 10.0, 15.0]
