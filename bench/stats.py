"""Pure-Python statistics the benchmark reports with.

Timings are reported as the median over equal time slices of a per-slice
statistic, so one stall (a GC pause, a checkpoint) moves one slice and
not the headline.  A percentile is only reported when every slice has at
least ``beyond`` samples past it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = [
    "eligible_percentile",
    "median",
    "overlap_at_k",
    "percentile",
    "regressed",
    "relative_gap",
    "slice_samples",
    "summarize_slices",
]


def percentile(values: Iterable[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"p must be in [0, 100], got {p}")
    position = (len(ordered) - 1) * p / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50)


def eligible_percentile(
    n_samples: int, candidates: Sequence[float] = (50, 90, 95, 99), beyond: int = 10
) -> float | None:
    """Highest candidate percentile with at least ``beyond`` samples past it."""
    eligible = [p for p in candidates if n_samples * (100 - p) / 100 >= beyond]
    return max(eligible) if eligible else None


def slice_samples(
    samples: Iterable[tuple[float, float]], start: float, slice_s: float, n_slices: int
) -> list[list[float]]:
    """Group ``(completed_at, value)`` samples into ``n_slices`` equal slices.

    A sample belongs to the slice its completion time falls in; samples
    outside ``[start, start + n_slices * slice_s)`` are dropped (warm-up,
    or a request still in flight when the window closed).
    """
    slices: list[list[float]] = [[] for _ in range(n_slices)]
    for completed_at, value in samples:
        offset = completed_at - start
        if offset < 0:
            continue
        index = int(offset // slice_s)
        if index < n_slices:
            slices[index].append(value)
    return slices


def summarize_slices(
    slices: Sequence[Sequence[float]], slice_s: float, tail: float = 95
) -> dict[str, float]:
    """Median-over-slices throughput, p50 and tail of latency slices.

    ``tail_eligible`` is 1.0 when every slice holds enough samples for the
    tail percentile (see :func:`eligible_percentile`).
    """
    filled = [values for values in slices if values]
    if not filled:
        raise ValueError("no slice holds a sample")
    smallest = min(len(values) for values in slices)
    eligible = eligible_percentile(smallest)
    return {
        "per_s": median(len(values) / slice_s for values in slices),
        "p50": median(percentile(values, 50) for values in filled),
        "tail": median(percentile(values, tail) for values in filled),
        "tail_eligible": float(eligible is not None and eligible >= tail),
        "min_slice_samples": float(smallest),
    }


def overlap_at_k(answer: Sequence[object], truth: Sequence[object], k: int) -> float:
    """Share of the longer top-``k`` list the two lists have in common."""
    left, right = set(answer[:k]), set(truth[:k])
    if not left and not right:
        return 1.0
    return len(left & right) / max(len(left), len(right))


def relative_gap(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Positive means worse in the metric's own direction (``better`` is
    ``"lower"`` or ``"higher"``).
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def regressed(first: float, second: float, better: str, bound: float) -> bool:
    """True when ``second`` is worse than ``first`` by more than ``bound``."""
    return relative_gap(first, second, better) > bound
