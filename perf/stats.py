"""Small statistics used by the harness: median, tail percentile, spread."""

from __future__ import annotations

import statistics
from typing import Sequence

#: candidate tail percentiles, lowest first
PERCENTILE_LADDER = (0.50, 0.90, 0.95, 0.99, 0.999)

#: a percentile is only reported with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def supported_percentile(n_samples: int) -> float:
    """The highest ladder percentile with >= 10 samples beyond it.

    With fewer than 20 samples not even the median qualifies; the median is
    returned anyway, and callers state the sample count next to it.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        # the small epsilon absorbs float error in (1 - p), e.g. 1000 * 0.01
        if n_samples * (1.0 - p) + 1e-9 >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    idx = min(len(sorted_values) - 1, int(p * len(sorted_values)))
    return float(sorted_values[idx])


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """Share of *first* by which *second* is worse (negative if better)."""
    if not first:
        return 0.0
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta
