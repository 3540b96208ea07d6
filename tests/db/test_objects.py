"""Databases and data objects."""

import pytest

from repro.db import Database, DataObject


def test_database_size_validation():
    with pytest.raises(ValueError):
        Database(0)


def test_objects_cover_contiguous_oid_range():
    database = Database(5, site_id=2, first_oid=10)
    assert database.oids() == [10, 11, 12, 13, 14]
    assert 12 in database
    assert 9 not in database
    assert 15 not in database


def test_object_lookup_error_is_informative():
    database = Database(3)
    with pytest.raises(KeyError, match="oid 99"):
        database.object(99)


def test_len_and_iter():
    database = Database(4)
    assert len(database) == 4
    assert [obj.oid for obj in database] == [0, 1, 2, 3]


def test_read_write_counters_and_timestamps():
    obj = DataObject(7)
    assert obj.read() == 0.0
    obj.write(3.5, timestamp=12.0)
    assert obj.value == 3.5
    assert obj.version_ts == 12.0
    assert obj.reads == 1
    assert obj.writes == 1
    obj.write(4.0, timestamp=15.0)
    assert obj.writes == 2
    assert obj.version_ts == 15.0


def test_objects_are_built_on_first_touch():
    database = Database(4, first_oid=2)
    assert 3 in database and 6 not in database
    assert database.oids() == [2, 3, 4, 5]
    assert not database._objects
    touched = database.object(3)
    touched.write(2.0, 5.0)
    assert database.object(3) is touched
    assert [(obj.oid, obj.value) for obj in database] == [
        (2, 0.0), (3, 2.0), (4, 0.0), (5, 0.0)]
    with pytest.raises(KeyError, match=r"oid 6 not in database of site "
                                       r"0 \(oids 2..5\)"):
        database.object(6)


def test_objects_are_independent():
    database = Database(3)
    database.object(0).write(1.0, 1.0)
    assert database.object(1).value == 0.0
    assert database.object(1).version_ts == 0.0
