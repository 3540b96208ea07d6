"""The estimator maths: ratios, speed correction, spreads, pairs.

Pure functions over plain numbers so the tests can feed them synthetic
samples.  Nothing here touches a clock.
"""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def round_ratio(unit_seconds: Sequence[float],
                slice_seconds: Sequence[float]) -> float:
    """One round's cost in reference-slice units.

    ``sum(unit) / mean(slice)``: a host that runs uniformly ``k`` times
    slower during the round scales both terms by ``k`` and leaves the
    ratio where it was.  ``rel_cost`` is the median of this over a
    run's rounds, which discards rounds a co-tenant hit between a unit
    and its neighbouring slices.
    """
    return sum(unit_seconds) / statistics.fmean(slice_seconds)


def speed_corrected(seconds: float, slice_measured_s: float,
                    slice_nominal_s: float) -> float:
    """``seconds`` as the nominal host would have taken them."""
    return seconds * slice_nominal_s / slice_measured_s


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the spread
    the benchmark contract bounds."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def relative_gap(base: float, other: float, better: str) -> float:
    """How much *worse* ``other`` is than ``base``, as a share of
    ``base`` (negative when ``other`` is better)."""
    if base == 0:
        return 0.0 if other == 0 else float("inf")
    gap = (other - base) / abs(base)
    return gap if better == "lower" else -gap


def paired_verdict(parent: Sequence[float], change: Sequence[float],
                   better: str, bound: float,
                   min_pairs: int = 10) -> Tuple[str, dict]:
    """The paired rule of the choosing-metrics guide, section 8.

    ``gain``: the change wins at least nine tenths of all pairs (ties
    count for neither side) and the medians differ by more than the
    parent's inter-quartile distance.  ``regression``: the change's
    median is worse than the parent's by more than ``bound`` and the
    parent's own spread is within the bound.  ``within_bound``: no
    worse than the bound, spread within the bound.  Anything else —
    too few pairs, or a spread wider than the bound — is
    ``unresolved``; this function never says "unchanged".
    """
    pairs = list(zip(parent, change))
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    losses = sum(1 for a, b in pairs if sign * (a - b) < 0)
    detail = {"pairs": len(pairs), "wins": wins, "losses": losses}
    if not pairs:
        return "unresolved", detail
    q1, parent_median, q3 = quartiles([a for a, _ in pairs])
    change_median = statistics.median(b for _, b in pairs)
    gap = relative_gap(parent_median, change_median, better)
    spread = (q3 - q1) / abs(parent_median) if parent_median else 0.0
    detail.update(parent_median=parent_median,
                  change_median=change_median,
                  parent_iqr=q3 - q1, gap=gap, spread=spread)
    if len(pairs) < min_pairs:
        return "unresolved", detail
    worst_change = (max if better == "lower" else min)(
        b for _, b in pairs)
    clean_sweep = all(sign * (a - worst_change) > 0 for a, _ in pairs)
    if (wins >= 0.9 * len(pairs)
            and abs(change_median - parent_median) > q3 - q1
            and gap < 0):
        return "gain", detail
    if spread > bound and not clean_sweep:
        return "unresolved", detail
    return ("regression" if gap > bound else "within_bound"), detail
