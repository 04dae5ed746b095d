"""Small statistics the benchmark reports: percentiles, shares, stage
increments.  Pure functions on plain lists, so the tests can feed them
synthetic inputs."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: percentiles the tail rule may report, highest first
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def tail(samples: Sequence[float]) -> tuple[Optional[float],
                                            Optional[float], int]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it: ``(q, value, n)``, or ``(None, None, n)`` when even the
    median has fewer than that many samples above it."""
    n = len(samples)
    for q in TAIL_LADDER:
        if n and beyond(n, q) >= MIN_BEYOND:
            return q, percentile(samples, q), n
    return None, None, n


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def fmean(values: Sequence[float]) -> float:
    return statistics.fmean(values)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failed_share(attempted: int, failed: int) -> float:
    """Failed items over attempted items."""
    if attempted <= 0:
        raise ValueError("failed_share needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def stage_increments(labels: Sequence[str],
                     prefix_times: Sequence[float],
                     ) -> tuple[dict[str, float], list[str]]:
    """Per-stage cost from prefix timings.

    ``prefix_times[k]`` is the time with the first ``k`` stages enabled,
    so ``len(prefix_times) == len(labels) + 1``.  Returns each label's
    increment over the prefix before it, and the labels whose increment
    is negative — run-to-run noise larger than the stage's cost, which
    is reported as unresolved rather than clamped to zero.  The
    increments sum to full time minus base time; a mismatch raises.
    """
    if len(prefix_times) != len(labels) + 1:
        raise ValueError(f"{len(labels)} stages need {len(labels) + 1} "
                         f"prefix times, got {len(prefix_times)}")
    inc = {label: prefix_times[k + 1] - prefix_times[k]
           for k, label in enumerate(labels)}
    want = prefix_times[-1] - prefix_times[0]
    got = math.fsum(inc.values())
    if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError(f"stage increments sum to {got}, "
                             f"full minus base is {want}")
    return inc, [label for label, v in inc.items() if v < 0]
