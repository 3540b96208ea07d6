"""Stable configuration fingerprints — the result-cache key.

A fingerprint is a SHA-256 digest over a canonical JSON encoding of a
configuration dataclass (every field, recursively, with the class name
included so two shapes with identical fields cannot collide) plus a
code-version salt.  Properties:

- **stable across field order and processes** — the JSON encoding sorts
  keys and avoids anything address- or hash-seed-dependent;
- **sensitive to every knob** — changing any field, nested field, or
  the seed produces a different digest;
- **total or loud** — a value with no canonical encoding (a set, an
  arbitrary object) or a dict whose keys collide once stringified
  raises ``TypeError`` naming the field path, rather than aliasing two
  configurations;
- **invalidated by semantic changes** — the salt carries a hash of the
  sources of every layer that can change a summary row (see
  :data:`HASHED_SOURCES`), so a row computed by different code is never
  served; bump :data:`CODE_VERSION` for a change the sources cannot
  show, and set ``REPRO_CACHE_SALT`` to partition caches between
  experimental branches without touching code.

The encoder is on the per-unit path of every cached run (DESIGN.md,
"Fingerprint and cache I/O path"): each dataclass type is inspected
once (:func:`_class_plan`) and the encoding of a deeply immutable
instance is memoised by identity, so the ten replications of one
configuration — ``dataclasses.replace(config, seed=...)`` shares the
sub-configs — encode them once, and ``ResultCache.put`` reuses the
encoding the unit's fingerprint was computed from.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from typing import Dict, Optional, Tuple

from ..protocols import REGISTRY

#: Bump whenever simulation semantics change in a way the hashed
#: sources cannot show: old cache entries must not satisfy new runs.
CODE_VERSION = "repro-exec-v3"  # v3: protocol plugin registry

#: Entries of ``src/repro`` whose sources are hashed into the salt:
#: everything a per-unit summary row is computed by.
HASHED_SOURCES = (
    "cc", "constants.py", "core/builder.py", "core/config.py",
    "core/experiment.py", "core/monitor.py", "db", "dist", "faults",
    "kernel", "protocols", "resources", "txn")
#: Entries that cannot change a row: observers (their zero-perturbation
#: contract is pinned by the goldens), tooling, and what only consumes
#: rows.  Every entry of ``src/repro`` is in exactly one of the two
#: tables (``tests/exec/test_source_salt.py`` fails on an unlisted one).
EXEMPT_SOURCES = (
    "__init__.py", "__main__.py", "analyze", "bench", "cli.py",
    "core/__init__.py", "core/metrics.py", "core/reporting.py", "exec",
    "model", "telemetry", "trace", "verify")

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_digest(root: Optional[str] = None) -> str:
    """SHA-256 over the :data:`HASHED_SOURCES` under ``root`` (default:
    the installed ``repro`` package).

    Digests each ``.py`` file's path relative to ``root`` and its
    bytes, in sorted order.  Raises ``OSError`` when an entry is
    missing or holds no source (a bytecode-only install).
    """
    root = root if root is not None else _PACKAGE_ROOT
    digest = hashlib.sha256()
    for entry in HASHED_SOURCES:
        path = os.path.join(root, *entry.split("/"))
        if entry.endswith(".py"):
            files = [path]
        else:
            files = sorted(
                os.path.join(folder, name)
                for folder, _, names in os.walk(path)
                for name in names if name.endswith(".py"))
            if not files:
                raise FileNotFoundError(f"no sources under {path}")
        for name in files:
            relative = os.path.relpath(name, root).replace(os.sep, "/")
            digest.update(relative.encode("utf-8") + b"\0")
            with open(name, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _code_version_token() -> str:
    """:data:`CODE_VERSION` plus a source-hash prefix.

    Computed on the first fingerprint of the process, never at import:
    a run that does not touch the cache must not read ~100 source
    files.  Falls back to the bare string when sources are unreadable.
    """
    try:
        return CODE_VERSION + "@" + source_digest()[:16]
    except OSError:
        return CODE_VERSION


def cache_salt(salt: Optional[str] = None) -> str:
    """The effective salt: code version + optional user partition."""
    extra = salt if salt is not None else os.environ.get(
        "REPRO_CACHE_SALT", "")
    return _code_version_token() + ("+" + extra if extra else "")


#: One compact C encoder for every payload (``json.dumps`` with
#: non-default arguments builds a new encoder per call).  No
#: ``sort_keys``: :func:`_walk` and :func:`canonical_payload` build
#: every dict in sorted key order already, and re-sorting a sorted tree
#: was a quarter of a fingerprint's cost.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

_LEAVES = frozenset((type(None), bool, int, float, str))

#: ``{dataclass type: (type name, fingerprinted field names in sorted
#: order, frozen)}``; ``None`` for every other type seen.
_PLANS: Dict[type, Optional[Tuple[str, Tuple[str, ...], bool]]] = {}

#: ``{id(instance): (instance, encoding)}`` for deeply immutable
#: dataclass instances.  Keyed by identity, not equality: ``200 ==
#: 200.0`` and ``True == 1`` but they encode differently.  The entry
#: holds the instance, so its id cannot be reused while it is here.
_MEMO: Dict[int, Tuple[object, dict]] = {}
#: Entries kept before the memo is dropped and refilled on demand.
MEMO_LIMIT = 1024


def _class_plan(cls: type) -> Optional[Tuple[str, Tuple[str, ...], bool]]:
    """Inspect ``cls`` once: how to encode its instances (``None``: not
    a dataclass), recorded in :data:`_PLANS`.

    Fields declaring ``metadata={"fingerprint": False}`` are left out:
    they select *how* a run executes (the event-core engine), not
    *what* it computes, so two configs differing only there must share
    one cache entry — a turbo run warm-hits a reference result and
    vice versa (``tests/exec/test_engine_cache.py``).
    """
    plan = None
    if dataclasses.is_dataclass(cls):
        names = tuple(sorted(
            field.name for field in dataclasses.fields(cls)
            if field.metadata.get("fingerprint", True)))
        plan = (cls.__name__, names, cls.__dataclass_params__.frozen)
    _PLANS[cls] = plan
    return plan


def _walk(value: object, path: str) -> Tuple[object, bool]:
    """``(canonical encoding, deeply immutable)`` of a config value.

    Every dict of the encoding is built in sorted key order: the tree
    is serialised without ``sort_keys``, by the fingerprint and by
    ``ResultCache.put``, and must read as if it had been sorted.
    """
    if type(value) in _LEAVES:
        return value, True
    try:
        plan = _PLANS[type(value)]
    except KeyError:
        plan = _class_plan(type(value))
    if plan is not None:
        name, names, stable = plan
        if stable:
            known = _MEMO.get(id(value))
            if known is not None and known[0] is value:
                return known[1], True
        fields = {}
        for field in names:
            item = getattr(value, field)
            if type(item) in _LEAVES:
                fields[field] = item
            else:
                fields[field], immutable = _walk(item, f"{path}.{field}")
                stable = stable and immutable
        encoded = {"__type__": name, "fields": fields}
        if stable:
            if len(_MEMO) >= MEMO_LIMIT:
                _MEMO.clear()
            _MEMO[id(value)] = (value, encoded)
        return encoded, stable
    if isinstance(value, (list, tuple)):
        stable = isinstance(value, tuple)
        items = []
        for index, item in enumerate(value):
            encoded, immutable = _walk(item, f"{path}[{index}]")
            items.append(encoded)
            stable = stable and immutable
        return items, stable
    if isinstance(value, dict):
        keyed = {str(key): item for key, item in value.items()}
        if len(keyed) != len(value):
            raise TypeError(f"cannot fingerprint {path}: two keys of "
                            f"the dict have the same str()")
        return {key: _walk(keyed[key], f"{path}[{key!r}]")[0]
                for key in sorted(keyed)}, False
    if isinstance(value, (bool, int, float, str)):  # leaf subclasses
        return value, True
    raise TypeError(f"cannot fingerprint {path}: no canonical encoding "
                    f"for a {type(value).__name__}")


def _protocol_token(config: object) -> Optional[str]:
    """The protocol plugin's fingerprint contribution.

    Registered protocols contribute ``name@revision`` (resolved to the
    canonical name, so aliases fingerprint identically), letting one
    plugin bump its ``revision`` to invalidate exactly its cached
    rows without a global :data:`CODE_VERSION` bump.  Configs without
    a protocol field — or with one that fails to resolve (validation
    reports that; fingerprints must stay total) — contribute nothing.
    """
    name = getattr(config, "protocol", None)
    if not isinstance(name, str):
        return None
    try:
        return REGISTRY.fingerprint_token(name)
    except ValueError:
        return None


def canonical_payload(config: object,
                      salt: Optional[str] = None) -> dict:
    """The object a fingerprint digests, keys in sorted order.

    Shares memoised sub-trees between calls: read it, serialise it,
    never mutate it.
    """
    payload = {"config": _walk(config, type(config).__name__)[0]}
    token = _protocol_token(config)
    if token is not None:
        payload["protocol"] = token
    payload["salt"] = cache_salt(salt)
    return payload


def config_payload(config: object,
                   salt: Optional[str] = None) -> str:
    """The canonical JSON string a fingerprint digests."""
    return _ENCODE(canonical_payload(config, salt))


def config_fingerprint(config: object,
                       salt: Optional[str] = None) -> str:
    """SHA-256 hex digest identifying one runnable configuration."""
    return hashlib.sha256(
        config_payload(config, salt).encode("utf-8")).hexdigest()


def describe_config(config: object) -> str:
    """Short human-readable label for logs and failure reports."""
    name = type(config).__name__
    parts = []
    for attr in ("protocol", "mode", "seed"):
        value = getattr(config, attr, None)
        if value is not None:
            parts.append(f"{attr}={value}")
    return f"{name}({', '.join(parts)})"
