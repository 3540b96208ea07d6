"""Charging a cProfile run to this repo's layers.

Every module under ``repro`` belongs to exactly one layer, named by the
package directly under ``repro.``; an unmapped package raises rather
than silently landing in a catch-all.  Functions outside ``repro``
(built-ins, the standard library) have no layer of their own: their
calls and self time are charged to the layer that called them, followed
up the profile's caller edges; what reaches no ``repro`` caller — the
harness itself — is ``py``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

from . import SRC

REPRO_DIR = os.path.join(SRC, "repro")

#: Layers in report order.  ``tools`` is everything under ``repro``
#: that is not on the simulation path (it should stay near zero: a
#: non-zero share means instrumentation leaked into a plain run).
LAYERS = ("kernel", "resources", "db", "cc", "txn", "dist", "core",
          "exec", "protocols", "tools", "py")

#: Package (or top-level module) directly under ``repro`` -> layer.
PACKAGE_LAYER = {
    "kernel": "kernel", "resources": "resources", "db": "db",
    "cc": "cc", "txn": "txn", "dist": "dist", "core": "core",
    "exec": "exec", "protocols": "protocols",
    "faults": "dist",        # fault plans act through dist.network
    "analyze": "tools", "bench": "tools", "model": "tools",
    "telemetry": "tools", "trace": "tools", "verify": "tools",
    "cli": "tools", "constants": "tools",
    "__init__": "tools", "__main__": "tools",
}


def layer_of_path(filename: str,
                  package_dir: str = REPRO_DIR) -> Optional[str]:
    """The layer owning ``filename``, or None when it is not under
    ``package_dir`` (``src/repro``).  Raises ``KeyError`` for a package
    this map does not know."""
    prefix = package_dir + os.sep
    if not filename.startswith(prefix):
        return None
    package = filename[len(prefix):].split(os.sep, 1)[0]
    if package.endswith(".py"):
        package = package[:-3]
    try:
        return PACKAGE_LAYER[package]
    except KeyError:
        raise KeyError(f"perfbench.layers: no layer for repro package "
                       f"{package!r} ({filename}); add it to "
                       f"PACKAGE_LAYER") from None


def check_source_tree(package_dir: str = REPRO_DIR) -> Dict[str, str]:
    """Map every entry directly under ``package_dir`` to its layer;
    raises ``KeyError`` on the first unmapped one."""
    mapping = {}
    for entry in sorted(os.listdir(package_dir)):
        if entry.startswith("__pycache__"):
            continue
        path = os.path.join(package_dir, entry)
        if os.path.isdir(path) or entry.endswith(".py"):
            mapping[entry] = layer_of_path(path, package_dir)
    return mapping


class Attribution:
    """Per-layer ``calls`` and ``self_s`` of one ``pstats`` table.

    ``stats`` is ``pstats.Stats(...).stats``: ``{func: (cc, nc, tt,
    ct, callers)}`` with ``callers[caller] = (cc, nc, tt, ct)`` giving
    the part of ``func``'s calls and self time incurred under that
    caller.  Calls are split by call counts and time by time, so the
    call attribution is as exact as the counts themselves.
    """

    def __init__(self, stats: Dict[tuple, tuple]):
        self.stats = stats
        self._owner_memo: Dict[Tuple[tuple, int], Dict[str, float]] = {}
        self.calls = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        for func, (_, nc, tt, _, callers) in stats.items():
            layer = layer_of_path(func[0])
            if layer is not None:
                self.calls[layer] += nc
                self.self_s[layer] += tt
                continue
            edge_calls = sum(edge[1] for edge in callers.values())
            edge_time = sum(edge[2] for edge in callers.values())
            for caller, edge in callers.items():
                self._charge(self.calls, caller, edge[1], 1)
                self._charge(self.self_s, caller, edge[2], 2)
            # Roots (no caller recorded) and rounding remainders.
            self.calls["py"] += nc - edge_calls
            self.self_s["py"] += tt - edge_time

    def _charge(self, totals: Dict[str, float], caller: tuple,
                amount: float, column: int) -> None:
        for layer, share in self._owner(caller, column, ()).items():
            totals[layer] += amount * share

    def _owner(self, func: tuple, column: int,
               stack: tuple) -> Dict[str, float]:
        """Which layers ``func`` works for, as shares summing to 1,
        weighting caller edges by ``column`` (1 = calls, 2 = time)."""
        layer = layer_of_path(func[0])
        if layer is not None:
            return {layer: 1.0}
        memo_key = (func, column)
        if memo_key in self._owner_memo:
            return self._owner_memo[memo_key]
        entry = self.stats.get(func)
        callers = entry[4] if entry is not None else {}
        weights = {caller: edge[column]
                   for caller, edge in callers.items()
                   if caller not in stack and caller != func}
        total = sum(weights.values())
        if total <= 0:
            shares = {"py": 1.0}
        else:
            shares = {}
            for caller, weight in weights.items():
                for layer, share in self._owner(
                        caller, column, stack + (func,)).items():
                    shares[layer] = (shares.get(layer, 0.0)
                                     + share * weight / total)
        if not stack:
            self._owner_memo[memo_key] = shares
        return shares

    @property
    def total_calls(self) -> float:
        return sum(self.calls.values())

    def self_share(self) -> Dict[str, float]:
        total = sum(self.self_s.values())
        return {layer: (seconds / total if total else 0.0)
                for layer, seconds in self.self_s.items()}


def probe(stats: Dict[tuple, tuple], path_suffix: str,
          names: Iterable[str]) -> Tuple[int, float]:
    """``(calls, cumulative seconds)`` of the named functions of the
    module whose file ends with ``path_suffix``."""
    names = set(names)
    suffix = path_suffix.replace("/", os.sep)
    calls, seconds = 0, 0.0
    for (filename, _, name), (_, nc, _, ct, _) in stats.items():
        if name in names and filename.endswith(suffix):
            calls += nc
            seconds += ct
    return calls, seconds
