"""Order statistics shared by the harness and the comparison tool."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer, one outlier would set its value.
MIN_BEYOND = 10


def tail_percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile, with at least 10 samples beyond.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the rank, so a metric named p90 is never a thinner tail.
    """
    ordered = sorted(values)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = math.ceil(q / 100 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
