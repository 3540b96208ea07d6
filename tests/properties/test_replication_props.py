"""Property tests: replica catalog partitioning and staleness algebra."""

from hypothesis import given
from hypothesis import strategies as st

from repro.db.replication import ReplicaCatalog

shapes = st.tuples(st.integers(min_value=1, max_value=500),
                   st.integers(min_value=1, max_value=8))


@given(shapes)
def test_every_object_has_exactly_one_primary(shape):
    db_size, n_sites = shape
    catalog = ReplicaCatalog(db_size, n_sites)
    owned = [oid for site in range(n_sites)
             for oid in catalog.primaries_at(site)]
    assert sorted(owned) == list(range(db_size))


@given(shapes)
def test_partition_is_balanced(shape):
    db_size, n_sites = shape
    catalog = ReplicaCatalog(db_size, n_sites)
    counts = [len(catalog.primaries_at(site)) for site in range(n_sites)]
    assert max(counts) - min(counts) <= 1 or db_size < n_sites


@given(shapes, st.data())
def test_staleness_nonnegative_and_zero_at_primary(shape, data):
    db_size, n_sites = shape
    catalog = ReplicaCatalog(db_size, n_sites)
    # This test exercises the staleness *algebra* with arbitrary writes,
    # deliberately ignoring the single-writer discipline the protocol
    # layer enforces — detach the R2 checker (cf. core/test_validate).
    catalog.checker = None
    writes = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=n_sites - 1),
                  st.integers(min_value=0, max_value=db_size - 1),
                  st.floats(min_value=0.0, max_value=1000.0,
                            allow_nan=False)),
        max_size=30))
    for site, oid, timestamp in writes:
        catalog.record_write(site, oid, timestamp)
    for oid in range(0, db_size, max(1, db_size // 10)):
        primary = catalog.primary_site(oid)
        assert catalog.staleness(primary, oid, now=2000.0) == 0.0
        for site in range(n_sites):
            assert catalog.staleness(site, oid, now=2000.0) >= 0.0


@given(shapes, st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False))
def test_catching_up_zeroes_staleness(shape, timestamp):
    db_size, n_sites = shape
    catalog = ReplicaCatalog(db_size, n_sites)
    oid = 0
    primary = catalog.primary_site(oid)
    catalog.record_write(primary, oid, timestamp)
    for site in range(n_sites):
        catalog.record_write(site, oid, timestamp)
    assert catalog.max_staleness(now=timestamp + 10.0) == 0.0
