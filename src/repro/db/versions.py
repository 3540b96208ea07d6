"""Multiversion object store for the temporal-consistency extension.

Section 4 of the paper sketches the mechanism: "If the system provides
multiple versions of data objects, ensuring a temporally consistent view
becomes a real-time scheduling problem in which the time lags in the
distributed versions need to be controlled.  Once the time lags can be
controlled by the timestamps of data objects, transactions can read the
proper versions of distributed data objects, and ensure that decisions
are based on temporally consistent data."

:class:`MultiVersionStore` keeps, per object, the committed version
history ``[(timestamp, value), ...]``; a reader asking for "the state as
of time t" gets, for every object, the latest version with timestamp
<= t — a temporally consistent snapshot across sites regardless of how
stale each individual secondary copy is.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple


class NoVersion(Exception):
    """No version of the object exists at or before the requested time."""


class MultiVersionStore:
    """Per-object committed version chains, ordered by timestamp."""

    def __init__(self, initial_timestamp: float = 0.0,
                 initial_value: float = 0.0):
        self._initial = (initial_timestamp, initial_value)
        #: oid -> parallel lists of timestamps and values, ascending.
        self._times: Dict[int, List[float]] = {}
        self._values: Dict[int, List[float]] = {}

    def install(self, oid: int, timestamp: float, value: float) -> None:
        """Append a committed version.

        Versions may be installed out of order (network reordering);
        they are kept sorted by timestamp.  Re-installing an identical
        timestamp overwrites (idempotent replica delivery).
        """
        times = self._times.setdefault(oid, [])
        values = self._values.setdefault(oid, [])
        index = bisect.bisect_left(times, timestamp)
        if index < len(times) and times[index] == timestamp:
            values[index] = value
        else:
            times.insert(index, timestamp)
            values.insert(index, value)

    def read_as_of(self, oid: int, timestamp: float) -> Tuple[float, float]:
        """Return ``(version_ts, value)`` of the latest version with
        ``version_ts <= timestamp``; falls back to the initial version."""
        times = self._times.get(oid)
        if not times:
            if self._initial[0] <= timestamp:
                return self._initial
            raise NoVersion(f"object {oid} has no version at {timestamp}")
        index = bisect.bisect_right(times, timestamp) - 1
        if index < 0:
            if self._initial[0] <= timestamp:
                return self._initial
            raise NoVersion(f"object {oid} has no version at {timestamp}")
        return times[index], self._values[oid][index]

    def version_count(self, oid: int) -> int:
        return len(self._times.get(oid, ()))
