"""Summary statistics shared by the benchmark and its steadiness study.

Standard library only: the orchestrator imports this module without
importing nctorus or numpy.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10
#: below this many samples only the median is a meaningful figure
TAIL_MIN_SAMPLES = 4 * TAIL_BEYOND


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has TAIL_BEYOND samples above it."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(samples: Sequence[float]) -> Optional[Tail]:
    """Nearest-rank tail of samples, or None when there are too few.

    With n samples the percentile is 100*(n - 10)/n: its nearest-rank
    value is the (n - 10)-th smallest sample, and exactly ten samples
    rank above it.
    """
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(samples)
    rank = n - TAIL_BEYOND
    return Tail(value=ordered[rank - 1], percentile=100.0 * rank / n, samples=n, beyond=TAIL_BEYOND)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
