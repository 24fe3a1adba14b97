"""Statistics the benchmark reports: medians and quartiles across runs,
the tail-percentile rule for FCTs, and ratios that carry their base."""

import math
import statistics

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as `statistics.quantiles(values, n=4)`
    gives them. A single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else math.inf


def nearest_rank(sorted_values, p):
    """The nearest-rank `p`th percentile of a sorted, non-empty list, and
    how many samples lie beyond it."""
    n = len(sorted_values)
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    rank = max(1, math.ceil(round(p / 100.0 * n, 9)))
    return sorted_values[rank - 1], n - rank


def tail_percentile(sorted_values, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """The highest percentile in `ladder` that has at least `min_beyond`
    samples beyond it: returns (percentile, value, samples beyond it,
    sample count). Raises ValueError when even the lowest has too few."""
    n = len(sorted_values)
    for p in ladder:
        if n == 0:
            break
        value, beyond = nearest_rank(sorted_values, p)
        if beyond >= min_beyond:
            return p, value, beyond, n
    raise ValueError(f"{n} samples support no percentile in {ladder}")


def ratio(part, base):
    """A ratio with its base: {"value": part / base, "base": base}. An
    empty base gives 0, so a layer that did no work reads 0."""
    return {"value": part / base if base else 0.0, "base": base}
