"""Replica catalog: placement, R2 enforcement, staleness accounting."""

import pytest

from repro.db import ReplicaCatalog, ReplicationViolation


def test_validation():
    with pytest.raises(ValueError):
        ReplicaCatalog(0, 3)
    with pytest.raises(ValueError):
        ReplicaCatalog(10, 0)


def test_primary_partition_is_balanced_and_total():
    catalog = ReplicaCatalog(db_size=9, n_sites=3)
    partitions = [catalog.primaries_at(site) for site in range(3)]
    assert sorted(oid for part in partitions for oid in part) == list(
        range(9))
    assert [len(part) for part in partitions] == [3, 3, 3]


def test_primary_site_consistent_with_partition():
    catalog = ReplicaCatalog(db_size=10, n_sites=3)
    for site in range(3):
        for oid in catalog.primaries_at(site):
            assert catalog.primary_site(oid) == site


def test_unknown_oid_rejected():
    catalog = ReplicaCatalog(db_size=5, n_sites=2)
    with pytest.raises(KeyError):
        catalog.primary_site(5)


def test_check_update_locality_accepts_local_primaries():
    catalog = ReplicaCatalog(db_size=6, n_sites=2)
    local = catalog.primaries_at(1)
    catalog.check_update_locality(1, local[:2])  # no raise


def test_check_update_locality_rejects_remote_primaries():
    catalog = ReplicaCatalog(db_size=6, n_sites=2)
    remote = catalog.primaries_at(0)
    with pytest.raises(ReplicationViolation, match="R2"):
        catalog.check_update_locality(1, remote[:1])


def test_locality_violation_names_the_remote_objects_in_order():
    catalog = ReplicaCatalog(db_size=6, n_sites=2)
    with pytest.raises(ReplicationViolation) as caught:
        catalog.check_update_locality(0, [4, 1, 3])
    assert str(caught.value) == ("R2 violated: site 0 cannot update "
                                 "objects [4, 3] (primaries at [1, 1])")


def test_staleness_zero_when_in_sync():
    catalog = ReplicaCatalog(db_size=4, n_sites=2)
    assert catalog.staleness(0, 1, now=10.0) == 0.0


def test_staleness_is_time_since_unseen_primary_write():
    catalog = ReplicaCatalog(db_size=4, n_sites=2)
    oid = catalog.primaries_at(0)[0]
    catalog.record_write(0, oid, timestamp=10.0)   # primary updated
    # The copy at site 1 has been missing the t=10 write for 2 units.
    assert catalog.staleness(1, oid, now=12.0) == 2.0
    assert catalog.staleness(1, oid, now=30.0) == 20.0
    catalog.record_write(1, oid, timestamp=10.0)   # replica caught up
    assert catalog.staleness(1, oid, now=12.0) == 0.0


def test_primary_site_never_stale():
    catalog = ReplicaCatalog(db_size=4, n_sites=2)
    oid = catalog.primaries_at(0)[0]
    catalog.record_write(0, oid, timestamp=10.0)
    assert catalog.staleness(0, oid, now=50.0) == 0.0


def test_max_staleness_over_all_copies():
    catalog = ReplicaCatalog(db_size=4, n_sites=2)
    first = catalog.primaries_at(0)[0]
    second = catalog.primaries_at(1)[0]
    catalog.record_write(0, first, timestamp=4.0)   # stale since t=4
    catalog.record_write(1, second, timestamp=9.0)  # stale since t=9
    catalog.record_write(0, second, timestamp=3.0)  # still old version
    # Worst copy is site 1's view of `first`: missing the t=4 write.
    assert catalog.max_staleness(now=20.0) == 16.0


def test_site_range_checked():
    catalog = ReplicaCatalog(db_size=4, n_sites=2)
    with pytest.raises(KeyError):
        catalog.record_write(2, 0, timestamp=1.0)
    with pytest.raises(KeyError):
        catalog.copy_timestamp(-1, 0)
