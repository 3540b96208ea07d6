"""Metric algebra shared by the experiment runner and the benchmarks.

Small, dependency-light statistics: replication means, sample standard
deviations, normal-approximation confidence intervals, and the ratio
helpers Figures 4 and 5 are built from (local/global throughput ratio,
global/local deadline-missing ratio).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence


#: Exact numeric types (``bool`` is an ``int`` subclass, not a metric).
_NUMBERS = frozenset((int, float))


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right with ``+=`` from int 0.

    Every float sum that reaches a row goes through here: builtin
    ``sum()`` compensates float addition from Python 3.12 on, so a row
    built with it would read differently by interpreter.  This is the
    plain order of Python <= 3.11's ``sum()``, on every interpreter.
    """
    total = 0
    for value in values:
        total += value
    return total


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return ordered_sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); 0.0 for fewer than 2 values."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(ordered_sum([(v - centre) ** 2 for v in values])
                     / (len(values) - 1))

def confidence_interval(values: Sequence[float],
                        z: float = 1.96) -> float:
    """Half-width of the normal-approximation CI of the mean."""
    if len(values) < 2:
        return 0.0
    return z * sample_std(values) / math.sqrt(len(values))


def safe_ratio(numerator: float, denominator: float,
               cap: Optional[float] = None) -> float:
    """numerator / denominator with a guarded zero denominator.

    A zero denominator with a positive numerator returns ``cap`` (or
    +inf when no cap is given); 0/0 returns 1.0 (both sides equally
    idle).  Figures 4/5 plot ratios of quantities that can individually
    reach zero in short runs — the guards keep sweeps well-defined.
    """
    if denominator == 0:
        if numerator == 0:
            return 1.0
        return cap if cap is not None else float("inf")
    ratio = numerator / denominator
    if cap is not None:
        ratio = min(ratio, cap)
    return ratio


def throughput_ratio(local_throughput: float,
                     global_throughput: float) -> float:
    """Figure 4's y-axis: local-ceiling over global-ceiling throughput."""
    return safe_ratio(local_throughput, global_throughput)


def missed_ratio(global_percent_missed: float,
                 local_percent_missed: float,
                 cap: float = 100.0) -> float:
    """Figure 5's y-axis: global over local percentage of deadline
    misses.  Capped (default 100×) because a near-perfect local run
    would otherwise explode the ratio."""
    return safe_ratio(global_percent_missed, local_percent_missed,
                      cap=cap)


def aggregate_runs(rows: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Average a list of per-run summary dicts key-by-key.

    Produces ``{key: mean}`` plus ``{key + "_std": std}`` and
    ``{key + "_ci95": half-width of the 95% CI}`` for every numeric key
    present in all rows; non-numeric or missing values are skipped.
    The replication count is recorded under ``n`` (and the legacy
    ``runs`` alias).  This is the "averaged over the 10 runs" step of
    §3.3.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no runs to aggregate")
    count = len(rows)
    root = math.sqrt(count)
    result: Dict[str, float] = {}
    for key in rows[0]:
        values: List[float] = []
        for row in rows:
            try:
                value = row[key]
            except KeyError:
                break
            if type(value) not in _NUMBERS and (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))):
                break
            values.append(float(value))
        else:
            # mean(), sample_std() and confidence_interval() in one
            # pass: the same operations in the same order, so every
            # float is bit-identical to the three-function formula.
            centre = ordered_sum(values) / count
            deviation = 0.0
            if count >= 2:
                deviation = math.sqrt(
                    ordered_sum([(v - centre) ** 2 for v in values])
                    / (count - 1))
            result[key] = centre
            result[key + "_std"] = deviation
            result[key + "_ci95"] = 1.96 * deviation / root
    result["n"] = count
    result["runs"] = float(count)
    return result
