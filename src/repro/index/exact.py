"""Brute-force exact cosine top-k index over the columnar arena.

The verification arm for LSH correctness tests and the baseline for the
block-and-verify comparison: always correct, O(n·dim) per query.  Vectors
live in the shared :class:`~repro.index.arena.VectorArena` (contiguous
``float32`` rows) and every live row is a candidate — the inherited
:meth:`~repro.index.arena.ColumnarIndex._candidate_mask` is the alive mask
— so a query is one masked matrix-vector product and a batch is one GEMM.
"""

from __future__ import annotations

from repro.index.arena import ColumnarIndex

__all__ = ["ExactCosineIndex"]


class ExactCosineIndex(ColumnarIndex):
    """Exact cosine top-k over named unit vectors (no default floor)."""

    threshold = -1.0

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        super().__init__(dim)

    def __repr__(self) -> str:
        return f"ExactCosineIndex(n={len(self)}, dim={self.dim})"
