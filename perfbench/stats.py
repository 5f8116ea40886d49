"""Order statistics the benchmark reports: percentiles, the tail
percentile rule, and run-to-run spread."""

from __future__ import annotations

import math
import statistics

#: Tail percentiles in the order they are preferred (highest first).
TAIL_CANDIDATES = (99, 95, 90)
#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100).

    Raises:
        ValueError: on an empty sample or ``q`` outside (0, 100].
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n``."""
    return max(1, math.ceil(q / 100 * n))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``q``-th percentile's position."""
    return n - _rank(n, q)


def min_samples(q: float) -> int:
    """The fewest samples that leave :data:`MIN_BEYOND` beyond the
    ``q``-th percentile (100 for p90, 200 for p95, 1000 for p99)."""
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def select_tail(samples, preferred: int = TAIL_CANDIDATES[0],
                ) -> tuple[int, float, int]:
    """The tail latency to report: the highest candidate percentile, at
    most ``preferred``, with at least :data:`MIN_BEYOND` samples beyond
    it.

    ``preferred`` is fixed per workload: it is the highest percentile
    that also repeated within a tenth across seeds when the workload
    was tuned, so one run never switches percentile on a borderline
    sample count.

    Returns:
        ``(percentile, value, samples_beyond)``.

    Raises:
        ValueError: on an empty sample, a ``preferred`` that is not a
            candidate, or too few samples for any candidate at most
            ``preferred`` (no tail is reported rather than one with
            fewer than :data:`MIN_BEYOND` samples beyond it).
    """
    if preferred not in TAIL_CANDIDATES:
        raise ValueError(f"preferred tail must be one of {TAIL_CANDIDATES}, "
                         f"got {preferred}")
    n = len(samples)
    candidates = [q for q in TAIL_CANDIDATES if q <= preferred]
    chosen = next((q for q in candidates
                   if samples_beyond(n, q) >= MIN_BEYOND), None)
    if chosen is None:
        raise ValueError(
            f"{n} samples leave fewer than {MIN_BEYOND} beyond "
            f"p{candidates[-1]}; no tail percentile qualifies")
    return chosen, percentile(samples, chosen), samples_beyond(n, chosen)


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median (the run-to-run
    steadiness figure the bounds in ``BENCHMARK.json`` apply to)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
