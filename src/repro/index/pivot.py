"""Pivot-based block-and-verify search (§5.2.3, after PEXESO).

The paper's first proposed search optimization: pick pivot vectors, store
every indexed vector's distance to each pivot, and at query time prune any
vector whose triangle-inequality lower bound already exceeds the search
radius; only survivors are verified with exact distance computations.

On unit vectors, Euclidean distance is monotone in cosine
(``d² = 2 - 2·cos``), so a cosine threshold maps to a metric radius and the
filter is exact — it never drops a true result, it only skips verification
work.  The benchmark reports the fraction of exact computations avoided.

Vectors live in the shared :class:`~repro.index.arena.VectorArena`; the
pivot distance table is one contiguous ``(rows, pivots)`` ``float32``
matrix over the arena, rebuilt lazily after mutations (the arena's
``generation`` counter flags compactions) or eagerly via :meth:`build`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmptyIndexError
from repro.index.arena import ColumnarIndex

__all__ = ["PivotFilterIndex", "cosine_to_radius"]


def cosine_to_radius(threshold: float) -> float:
    """Euclidean search radius equivalent to a cosine floor on unit vectors."""
    clipped = min(1.0, max(-1.0, threshold))
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * clipped)))


class PivotFilterIndex(ColumnarIndex):
    """Exact thresholded cosine search accelerated by pivot filtering.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    n_pivots:
        Number of pivots; chosen greedily (max-min) from the indexed data at
        :meth:`build` time for good coverage.
    threshold:
        Default cosine floor.
    """

    def __init__(self, dim: int, *, n_pivots: int = 8, threshold: float = 0.7) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if n_pivots <= 0:
            raise ValueError(f"n_pivots must be positive, got {n_pivots}")
        super().__init__(dim)
        self.n_pivots = n_pivots
        self.threshold = threshold
        self._pivots: np.ndarray | None = None
        self._pivot_distances: np.ndarray | None = None
        self._built_size = 0
        self._built_generation = -1
        self.last_verified_count = 0

    def __repr__(self) -> str:
        return (
            f"PivotFilterIndex(n={len(self)}, dim={self.dim}, "
            f"pivots={self.n_pivots}, threshold={self.threshold})"
        )

    # -- derived structures -------------------------------------------------------

    def _after_add(self, row: int) -> None:
        self._pivots = None  # force rebuild

    def _after_bulk(self, rows: np.ndarray) -> None:
        self._pivots = None  # one invalidation covers the whole batch

    def _after_remove(self) -> None:
        # A tombstone alone keeps the distance table valid (dead rows are
        # masked at query time), but a threshold-triggered compaction
        # renumbers rows; _ensure_built detects that via the generation.
        pass

    def _stale(self) -> bool:
        return (
            self._pivots is None
            or self._built_size != self._arena.size
            or self._built_generation != self._arena.generation
        )

    def build(self) -> None:
        """Choose pivots (greedy max-min) and precompute pivot distances.

        O(live · pivots · dim).  The distance table spans the occupied
        arena region; tombstoned rows keep a (stale) table entry and are
        dropped by the alive mask at query time.
        """
        arena = self._arena
        live = arena.live_rows()
        if live.size == 0:
            raise EmptyIndexError("cannot build an empty PivotFilterIndex")
        matrix = arena.matrix
        n_pivots = min(self.n_pivots, int(live.size))
        # Greedy max-min (farthest-point) pivot selection over live rows,
        # seeded at the first live row.
        chosen = [int(live[0])]
        distances = np.linalg.norm(matrix[live] - matrix[chosen[0]], axis=1)
        while len(chosen) < n_pivots:
            farthest = int(np.argmax(distances))
            if distances[farthest] == 0.0:
                break
            chosen.append(int(live[farthest]))
            new_distances = np.linalg.norm(matrix[live] - matrix[chosen[-1]], axis=1)
            distances = np.minimum(distances, new_distances)
        pivots = matrix[chosen].copy()
        # (rows, n_pivots) distance table over the whole occupied region.
        self._pivot_distances = np.linalg.norm(
            matrix[:, None, :] - pivots[None, :, :], axis=2
        )
        self._built_size = arena.size
        self._built_generation = arena.generation
        # Assigned last: _ensure_built keys off _pivots, so a build must be
        # fully published before any reader can see it as complete.
        self._pivots = pivots

    def _ensure_built(self) -> None:
        if self._stale():
            self.build()

    def _candidate_mask(self, unit: np.ndarray, floor: float) -> np.ndarray:
        """Live rows whose triangle-inequality lower bound is within radius.

        Lossless: a row at cosine ``>= floor`` is never masked out, so the
        filter only spares the gathered plan some verification work.
        """
        self._ensure_built()
        assert self._pivots is not None and self._pivot_distances is not None
        query_to_pivots = np.linalg.norm(self._pivots - unit, axis=1)
        lower_bounds = np.abs(
            self._pivot_distances - query_to_pivots[None, :]
        ).max(axis=1)
        mask = self._arena.alive & (lower_bounds <= cosine_to_radius(floor))
        self.last_verified_count = int(np.count_nonzero(mask))
        return mask

    @property
    def prune_rate(self) -> float:
        """Fraction of stored vectors skipped by the last query's filter.

        Diagnostics only and not synchronized: under concurrent queries it
        reflects whichever query wrote last.
        """
        if len(self) == 0:
            return 0.0
        return 1.0 - self.last_verified_count / len(self)
