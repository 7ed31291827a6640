"""Banded SimHash LSH index with exact-cosine re-ranking, arena-backed.

The index stores every vector's SimHash signature as ``n_bands`` packed
``uint64`` band keys in the shared columnar
:class:`~repro.index.arena.VectorArena` (one contiguous ``float32`` vector
matrix plus one contiguous ``uint64`` signature matrix — no per-vector
Python objects).  Vectors sharing any full band key with the query become
candidates; candidates are then re-ranked by exact cosine on the stored
vectors — a gathered matrix product, a full one when the bucket union
covers much of the arena, or one GEMM for a whole query block via
:meth:`search_batch` — and filtered by the similarity threshold (the paper
sets 0.7), so the LSH layer only buys *speed*, never changes the ranking
measure.  The backend's whole contribution to the read path is
:meth:`SimHashLSHIndex._candidate_mask`; ``query`` and ``search_batch``
are inherited from :class:`~repro.index.arena.ColumnarIndex`.

Deletion tombstones the arena row in O(1); bucket postings keep pointing
at dead rows until the arena's threshold-triggered compaction, after which
the buckets are rebuilt wholesale from the packed signature matrix (the
arena ``generation`` counter flags this).  Dead postings are filtered by
the alive mask during candidate generation, so searches stay correct
between compactions.
"""

from __future__ import annotations

import numpy as np

from repro.index.arena import ColumnarIndex
from repro.index.simhash import SimHashFamily, pack_band_keys

__all__ = ["SimHashLSHIndex"]


class _BucketState:
    """Band buckets for one arena generation.

    ``postings``: per band, a dict mapping the packed band key to the list
    of arena rows carrying it.  ``frozen``: per band, a lazily-populated
    cache of those posting lists as ``int64`` arrays — queries hit the same
    hot buckets repeatedly, and freezing once amortizes the list→array
    conversion across every later probe.  The whole state is swapped
    atomically (single attribute assignment) when a compaction forces a
    rebuild, so concurrent readers always see a coherent pair.
    """

    __slots__ = ("generation", "postings", "frozen")

    def __init__(self, generation: int, n_bands: int) -> None:
        self.generation = generation
        self.postings: list[dict[int, list[int]]] = [{} for _ in range(n_bands)]
        self.frozen: list[dict[int, np.ndarray]] = [{} for _ in range(n_bands)]

    def insert(self, band_keys: list[int], row: int) -> None:
        for band, band_key in enumerate(band_keys):
            self.postings[band].setdefault(band_key, []).append(row)
            self.frozen[band].pop(band_key, None)

    def bucket_array(self, band: int, band_key: int) -> np.ndarray | None:
        """Posting list of one bucket as a cached ``int64`` array."""
        cached = self.frozen[band].get(band_key)
        if cached is not None:
            return cached
        postings = self.postings[band].get(band_key)
        if postings is None:
            return None
        array = np.asarray(postings, dtype=np.int64)
        self.frozen[band][band_key] = array
        return array


class SimHashLSHIndex(ColumnarIndex):
    """Approximate cosine top-k search over named vectors.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    n_bits:
        Total signature bits (``n_bands * rows_per_band`` must equal it).
    n_bands / rows_per_band:
        Banding layout: more rows per band → stricter candidate generation;
        more bands → higher recall.  ``rows_per_band`` may not exceed 64 (a
        band key must pack into one ``uint64``).
    threshold:
        Cosine floor applied after exact re-ranking (paper: 0.7).
    """

    def __init__(
        self,
        dim: int,
        *,
        n_bits: int = 128,
        n_bands: int = 16,
        threshold: float = 0.7,
        seed_key: str = "warpgate-lsh",
    ) -> None:
        if n_bits % n_bands != 0:
            raise ValueError(
                f"n_bits ({n_bits}) must be divisible by n_bands ({n_bands})"
            )
        if n_bits // n_bands > 64:
            raise ValueError(
                f"rows_per_band ({n_bits // n_bands}) exceeds 64; a band key "
                "must pack into one uint64"
            )
        if not -1.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [-1, 1], got {threshold}")
        super().__init__(dim, signature_words=n_bands)
        self.n_bits = n_bits
        self.n_bands = n_bands
        self.rows_per_band = n_bits // n_bands
        self.threshold = threshold
        self._family = SimHashFamily(dim, n_bits, seed_key=seed_key)
        self._buckets = _BucketState(self._arena.generation, n_bands)
        self._last_candidate_count = 0

    def __repr__(self) -> str:
        return (
            f"SimHashLSHIndex(n={len(self)}, dim={self.dim}, "
            f"bands={self.n_bands}x{self.rows_per_band}, "
            f"threshold={self.threshold})"
        )

    # -- signatures ---------------------------------------------------------------

    def _signature_for(self, unit: np.ndarray) -> np.ndarray:
        return pack_band_keys(self._family.signature(unit), self.n_bands)

    def _signatures_for(self, units: np.ndarray) -> np.ndarray:
        return pack_band_keys(self._family.signatures(units), self.n_bands)

    # -- bucket maintenance -------------------------------------------------------

    def _synced_buckets(self) -> _BucketState:
        """Current bucket state, rebuilt if a compaction renumbered rows."""
        state = self._buckets
        if state.generation != self._arena.generation:
            state = self._rebuild_buckets()
        return state

    def _rebuild_buckets(self) -> _BucketState:
        """Regroup live rows by band key from the packed signature matrix.

        One argsort per band over the live rows — O(bands · n log n) — then
        contiguous runs become posting arrays directly, so the rebuild
        never touches per-row Python objects.
        """
        arena = self._arena
        state = _BucketState(arena.generation, self.n_bands)
        live = arena.live_rows()
        if live.size:
            signatures = arena.signatures[live]
            for band in range(self.n_bands):
                keys_column = signatures[:, band]
                order = np.argsort(keys_column, kind="stable")
                sorted_keys = keys_column[order]
                sorted_rows = live[order]
                run_starts = np.flatnonzero(
                    np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
                )
                run_bounds = np.append(run_starts, live.size)
                postings = state.postings[band]
                frozen = state.frozen[band]
                for run in range(run_starts.size):
                    start, stop = int(run_bounds[run]), int(run_bounds[run + 1])
                    band_key = int(sorted_keys[start])
                    rows = sorted_rows[start:stop]
                    postings[band_key] = rows.tolist()
                    frozen[band_key] = rows
        self._buckets = state
        return state

    def _after_add(self, row: int) -> None:
        state = self._buckets
        if state.generation != self._arena.generation:
            # A compaction invalidated the buckets; the rebuild reads the
            # arena, which already holds the new row — inserting it again
            # would duplicate its postings.
            self._rebuild_buckets()
            return
        state.insert(self._arena.signatures[row].tolist(), row)

    def _after_bulk(self, rows: np.ndarray) -> None:
        # A bulk append regroups wholesale from the packed signature
        # matrix (one argsort per band) instead of running the per-row
        # insert path len(rows) times.
        self._rebuild_buckets()

    def build(self) -> None:
        """Eagerly resynchronize buckets after mutations (idempotent).

        Queries resynchronize lazily; the serving layer calls this under
        its write lock so the concurrent read path never rebuilds state.
        """
        self._synced_buckets()

    # -- search -------------------------------------------------------------------

    def _candidate_mask(self, unit: np.ndarray, floor: float) -> np.ndarray:
        """Live rows sharing at least one band key with the query.

        The query's bucket posting arrays are scattered into one flag
        vector (which deduplicates them) and intersected with the alive
        mask, so tombstoned rows never surface.
        """
        state = self._synced_buckets()
        flags = np.zeros(self._arena.size, dtype=bool)
        for band, band_key in enumerate(self._signature_for(unit).tolist()):
            array = state.bucket_array(band, band_key)
            if array is not None:
                flags[array] = True
        flags &= self._arena.alive
        self._last_candidate_count = int(np.count_nonzero(flags))
        return flags

    @property
    def last_candidate_count(self) -> int:
        """Live rows in the bucket union of the most recent probe.

        Probe selectivity before the cosine floor, whichever plan scored
        it; after a ``search_batch`` it describes the block's last query.
        Diagnostics only and not synchronized: under concurrent queries it
        reflects whichever query wrote last.
        """
        return self._last_candidate_count

    def expected_candidate_rate(self, cosine: float) -> float:
        """Probability a vector at ``cosine`` similarity becomes a candidate.

        ``1 - (1 - p^r)^b`` with ``p`` the per-bit agreement probability —
        the standard banding S-curve, exposed for the threshold ablation.
        """
        p = SimHashFamily.collision_probability(cosine)
        return 1.0 - (1.0 - p**self.rows_per_band) ** self.n_bands
