"""Data objects and per-site databases.

A :class:`Database` is the flat collection of lockable granules at one
site ("database at each site with user defined structure, size,
granularity").  Objects carry a value and a version timestamp so the
replication layer can measure temporal consistency (the age of secondary
copies), which Section 4 of the paper turns into a multiversion
timestamp mechanism.
"""

from __future__ import annotations

from typing import Dict, Iterator, List


class DataObject:
    """One lockable granule."""

    __slots__ = ("oid", "value", "version_ts")

    def __init__(self, oid: int, value: float = 0.0,
                 version_ts: float = 0.0):
        self.oid = oid
        self.value = value
        #: Virtual time of the last committed write reflected here.
        self.version_ts = version_ts

    def write(self, value: float, timestamp: float) -> None:
        self.value = value
        self.version_ts = timestamp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataObject(oid={self.oid}, ts={self.version_ts:.6g})"


class Database:
    """A fixed-size set of data objects identified by integer oids.

    Objects are built on first touch: a run pays for the objects its
    transactions reach, not for the whole database.  An untouched
    object is indistinguishable from a fresh :class:`DataObject`, and
    every accessor below builds it before handing it out.
    """

    def __init__(self, size: int, site_id: int = 0,
                 first_oid: int = 0):
        if size < 1:
            raise ValueError(f"database size must be >= 1, got {size}")
        self.site_id = site_id
        self.size = size
        self.first_oid = first_oid
        self._oids = range(first_oid, first_oid + size)
        self._objects: Dict[int, DataObject] = {}

    def object(self, oid: int) -> DataObject:
        try:
            return self._objects[oid]
        except KeyError:
            if oid not in self._oids:
                raise KeyError(
                    f"oid {oid} not in database of site {self.site_id} "
                    f"(oids {self.first_oid}.."
                    f"{self.first_oid + self.size - 1})") from None
            obj = self._objects[oid] = DataObject(oid)
            return obj

    def __contains__(self, oid: int) -> bool:
        return oid in self._oids

    def oids(self) -> List[int]:
        """All object ids, in ascending order."""
        return list(self._oids)

    def __iter__(self) -> Iterator[DataObject]:
        for oid in self._oids:
            yield self.object(oid)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database(site={self.site_id}, size={self.size})"
