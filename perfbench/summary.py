"""Order statistics and interval arithmetic used by the benchmark.

Kept free of any sphfano import so that the benchmark's own tests can check
it on synthetic numbers.
"""

from __future__ import annotations

import math

# Candidate tail percentiles, lowest first.  The reported tail is the highest
# of these that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples <= it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = max(1, math.ceil(p * len(s) / 100.0))
    return s[rank - 1]


def tail(values):
    """(percentile, value, samples beyond it) of the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples beyond it, or None when even the
    median has fewer."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        beyond = n - max(1, math.ceil(p * n / 100.0))
        if n and beyond >= TAIL_MIN_BEYOND:
            best = (p, percentile(values, p), beyond)
    return best


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered_length(child_intervals, start, end)
