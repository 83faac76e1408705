"""Summary statistics shared by the benchmark runner and its repeat script."""

from __future__ import annotations

import math
import statistics

#: Candidate percentiles for a tail latency, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
#: Samples a tail percentile must leave above it.
MIN_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, beyond)`` for the highest percentile in
    ``TAIL_LADDER`` that leaves at least ``MIN_BEYOND`` samples above it
    (nearest-rank definition).  With too few samples for any of them the
    maximum is reported as percentile 100 with nothing beyond."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(math.ceil(p / 100 * n), 1)
        if n - rank >= MIN_BEYOND:
            best = (p, rank)
    if best is None:
        return 100.0, ordered[-1], 0
    p, rank = best
    return p, ordered[rank - 1], n - rank


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
