"""Summary statistics with the sample-count rule for tail percentiles."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: ranked beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile (0 < q < 1) and the count ranked beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile, or None when fewer than :data:`MIN_BEYOND`
    samples lie beyond it."""
    if not values:
        return None
    value, beyond = percentile(values, q)
    return value if beyond >= MIN_BEYOND else None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)
