"""Summary statistics for benchmark samples.

A percentile is reported only when the sample supports it: at least
``MIN_BEYOND`` samples must lie beyond it, so a p90 needs 100 samples
and a p99 needs 1000.  Anything less raises :class:`TooFewSamples`
instead of returning a number that one outlier decides.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-percentile of ``samples`` (``0 < q < 1``).

    Refuses (``TooFewSamples``) when fewer than ``min_beyond`` samples
    lie strictly beyond the percentile's rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(samples)
    rank = math.ceil(q * n)
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {max(beyond, 0)} beyond it; "
            f"need {min_beyond}"
        )
    return sorted(samples)[rank - 1]


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which :func:`percentile` reports ``q``."""
    n = 1
    while n - math.ceil(q * n) < min_beyond:
        n += 1
    return n


def median(samples) -> float:
    if not samples:
        raise TooFewSamples("median of an empty sample")
    return statistics.median(samples)
