"""Closed-form backbones of the paper's claims, against simulation.

- **Ceiling-pipeline capacity.**  Under earliest-deadline-first with a
  fixed transaction size, every arrival ranks below all active
  transactions, so the ceiling admission rule serialises lock-holding:
  normalised throughput is capped at ``1 / per_object_time`` objects
  per time unit, independent of the transaction size (Figure 2's flat
  C-curve).
- **Gray's deadlock law.**  "The probability of deadlocks would go up
  with the fourth power of the transaction size" [Gray81] — the
  Figure-3 driver.
"""

import dataclasses
import math

from repro.bench.figures import single_site_config
from repro.core.experiment import run_single_site


def log_log_slope(xs, ys):
    """Least-squares slope of log(y) on log(x), over the points with
    a positive y (log undefined otherwise)."""
    points = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    assert len(points) >= 2, (xs, ys)
    mean_x = sum(x for x, __ in points) / len(points)
    mean_y = sum(y for __, y in points) / len(points)
    return (sum((x - mean_x) * (y - mean_y) for x, y in points)
            / sum((x - mean_x) ** 2 for x, __ in points))


def test_ceiling_throughput_never_exceeds_pipeline_capacity():
    for size in (8, 14, 20):
        config = single_site_config("C", size, n_transactions=100)
        row = run_single_site(config)
        capacity = 1.0 / config.costs.per_object_time
        assert row["throughput"] <= capacity * 1.05  # 5% edge margin


def test_measured_deadlocks_follow_a_steep_power_law():
    """Gray's law says ~size^4; measured counts (which saturate as
    transactions start missing deadlines before deadlocking) should
    still fit a clearly superlinear power law."""
    sizes = (6, 9, 12, 15)
    counts = []
    for size in sizes:
        total = 0.0
        for seed in (1, 2, 3):
            config = dataclasses.replace(
                single_site_config("L", size, n_transactions=150),
                seed=seed)
            total += run_single_site(config)["cc_deadlocks"]
        counts.append(total / 3)
    exponent = log_log_slope(sizes, counts)
    assert exponent > 2.0, (sizes, counts, exponent)
