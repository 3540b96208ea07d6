"""Result cache: fingerprint -> summary row, in memory and on disk.

Each cached unit is one small JSON file under
``<cache-dir>/<fp[:2]>/<fp>.json`` (the two-level fan-out keeps
directories small on big sweeps).  Writes are atomic
(temp file + ``os.replace``) so a crashed run never leaves a torn
entry, and reads tolerate corrupt or foreign files by treating them as
misses.  The cache is safe for concurrent writers on one machine: the
worst case is two processes computing the same unit and one replace
winning, which is harmless because entries are deterministic.

Every instance also remembers the rows it has read or durably written,
so a unit repeated within one invocation (``repro all``'s specs share
grids) is served without touching the disk again.
``ResultCache(None)`` is that memory alone: the CLI's ``--no-cache``,
which computes each distinct unit once and writes nothing.

Resolution order for "should this run use a cache, and where":

1. explicit argument (a :class:`ResultCache`, a directory path, or
   ``True`` for the default directory; ``False``/``None`` means off);
2. ``REPRO_NO_CACHE=1`` forces off;
3. ``REPRO_CACHE_DIR=<dir>`` turns the cache on at ``<dir>``;
4. otherwise off (library calls never touch the filesystem unasked —
   the CLI opts in explicitly).
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Dict, Optional, Union

from .fingerprint import canonical_payload

CacheSpec = Union["ResultCache", str, os.PathLike, bool, None]

_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL
#: With the pid, a temp-file name no other live writer is using.
_TEMP_IDS = itertools.count()


def no_cache_requested() -> bool:
    """``REPRO_NO_CACHE`` is set to anything but ``""`` or ``"0"``."""
    return os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro")


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a fresh temp file beside ``path`` and rename
    it into place; the temp file is gone on any failure."""
    temp = f"{path}.{os.getpid()}-{next(_TEMP_IDS)}.tmp"
    try:
        fd = os.open(temp, _TEMP_FLAGS, 0o600)
    except FileNotFoundError:   # first entry of this fan-out directory
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(temp, _TEMP_FLAGS, 0o600)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


class ResultCache:
    """Content-addressed store of per-unit summary rows.

    ``directory=None`` keeps rows in memory only.  The memory tier
    belongs to the instance and holds copies: a row goes in and comes
    out as ``dict(row)`` (rows are flat dicts of numbers), so a caller
    that mutates a returned row cannot change a later hit.
    """

    def __init__(self, directory: Optional[Union[str, os.PathLike]]):
        self.directory: Optional[str] = (
            None if directory is None else os.fspath(directory))
        self.hits = 0
        self.misses = 0
        #: Entries written to disk (the memory tier counts none).
        self.writes = 0
        self._rows: Dict[str, dict] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({self.directory!r}, hits={self.hits}, "
                f"misses={self.misses}, writes={self.writes})")

    def path_for(self, fingerprint: str) -> str:
        if self.directory is None:
            raise ValueError("a memory-only cache has no entry paths")
        return os.path.join(self.directory, fingerprint[:2],
                            fingerprint + ".json")

    def get(self, fingerprint: str) -> Optional[dict]:
        """The cached row, or None on miss / corrupt entry."""
        row = self._rows.get(fingerprint)
        if row is None and self.directory is not None:
            row = self._read(fingerprint)
            if row is not None:
                self._rows[fingerprint] = row
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(row)

    def _read(self, fingerprint: str) -> Optional[dict]:
        try:
            with open(self.path_for(fingerprint), "rb") as handle:
                payload = json.loads(handle.read())
            row = payload["row"]
            if (payload.get("fingerprint") != fingerprint
                    or not isinstance(row, dict)):
                raise ValueError("foreign or torn cache entry")
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return row

    def put(self, fingerprint: str, row: dict,
            config: Optional[object] = None) -> None:
        """Atomically store ``row`` under ``fingerprint``.

        The originating config's canonical payload is stored alongside
        the row so entries are self-describing (debuggable with `cat`).
        Write errors (read-only cache dir, disk full) are swallowed:
        caching is an optimisation, never a correctness requirement.
        Memory remembers the row only once it is durable on disk.
        """
        if self.directory is not None:
            payload = {"fingerprint": fingerprint, "row": row}
            if config is not None:
                # Already in sorted key order, and memoised from the
                # unit's fingerprint: nothing is re-encoded here.
                payload["config"] = canonical_payload(config)
            data = json.dumps(payload).encode("ascii")
            try:
                _write_atomic(self.path_for(fingerprint), data)
            except OSError:
                return
            self.writes += 1
        self._rows[fingerprint] = dict(row)


def resolve_cache(cache: CacheSpec = None) -> Optional[ResultCache]:
    """Turn a cache spec (argument or environment) into a cache."""
    if isinstance(cache, ResultCache):
        return cache
    if cache is True:
        return ResultCache(default_cache_dir())
    if cache is False:
        return None
    if cache is not None:  # path-like
        return ResultCache(cache)
    if no_cache_requested():
        return None
    directory = os.environ.get("REPRO_CACHE_DIR")
    if directory:
        return ResultCache(directory)
    return None
