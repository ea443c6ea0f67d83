"""Statistics of the repository benchmark.

Timings are reported as a median plus the highest tail percentile that
still has at least ten samples beyond it, always with the sample count
and the quartiles (as ``statistics.quantiles(values, n=4)`` gives them).
"""

import statistics

# Candidate tail percentiles, highest first.
TAILS = (99.99, 99.9, 99.0, 90.0, 50.0)


def percentile(values, p):
    """The p-th percentile (0..100), interpolating linearly between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside 0..100")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def beyond(n, p):
    """Whole samples beyond the p-th percentile of n samples."""
    return int(n * (100.0 - p) / 100.0 + 1e-9)


def tail(values, min_beyond=10):
    """(p, value, samples beyond) for the highest percentile in TAILS with
    at least ``min_beyond`` samples beyond it; None when even the median
    has fewer."""
    for p in TAILS:
        if beyond(len(values), p) >= min_beyond:
            return p, percentile(values, p), beyond(len(values), p)
    return None


def quartiles(values):
    """First quartile, median and third quartile, as the spread check
    computes them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    """Sample count, median, quartiles and qualified tail of a sample."""
    q1, _, q3 = quartiles(values)
    out = {"n": len(values), "median": median(values), "q1": q1, "q3": q3}
    t = tail(values)
    if t is not None:
        out["tail_p"], out["tail"], out["tail_beyond"] = t
    return out
