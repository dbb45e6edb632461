"""Nearest-rank percentiles and the rule for which tail a sample supports."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

#: Percentiles the tail rule may pick from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of *pct* among *count* samples (exact arithmetic)."""
    return max(1, math.ceil(Fraction(pct).limit_denominator(1000) * count / 100))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie beyond the nearest-rank *pct*."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    beyond it.
    """
    for pct in TAIL_CANDIDATES:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def supports(count: int, pct: float) -> bool:
    """Whether *count* samples are enough to report the *pct* percentile."""
    return samples_beyond(count, pct) >= MIN_BEYOND
