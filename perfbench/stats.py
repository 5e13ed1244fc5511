"""Order statistics the benchmark reports beyond the statistics module."""

import math


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. 0 < p <= 100."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


def samples_beyond(count, p):
    """Samples that lie beyond the p-th percentile of `count` samples."""
    return count - math.ceil(p / 100.0 * count)
