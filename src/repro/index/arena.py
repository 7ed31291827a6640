"""Columnar vector storage shared by every cosine index backend.

The index layer used to keep one small ``np.ndarray`` per column in Python
lists and re-rank candidates in Python loops — fine for a few hundred
columns, the opposite of warehouse-scale.  :class:`VectorArena` replaces
that with contiguous columnar storage:

* one growable 2-D ``float32`` matrix of unit vectors (geometric doubling,
  so appends are amortized O(dim));
* one parallel 2-D ``uint64`` matrix of packed SimHash band keys (see
  :func:`repro.index.simhash.pack_band_keys`), absent for backends that
  need no signatures;
* a tombstone lifecycle for deletion: ``remove`` clears one bit in an
  alive mask, and once the dead fraction crosses a threshold the arena
  compacts — a stable (order-preserving) rewrite of the live rows that
  bumps ``generation`` so owners rebuild row-addressed structures.

Every query is *score → candidate mask ∧ floor → select* over the arena
(:func:`select_topk` is the only top-k cut), and the batched search path
scores a whole query block in one BLAS matmul.  :class:`ColumnarIndex` is
the shared base the three backends
(:class:`~repro.index.lsh.SimHashLSHIndex`,
:class:`~repro.index.exact.ExactCosineIndex`,
:class:`~repro.index.pivot.PivotFilterIndex`) build on; it owns the arena
plus the canonical vector/signature validation, so dimension errors raise
:class:`~repro.errors.DimensionMismatchError` identically everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError, EmptyIndexError

__all__ = ["ColumnarIndex", "VectorArena", "rank_order", "select_topk"]

# Compaction fires when more than this fraction of occupied rows are dead
# (and the arena is big enough for the rewrite to matter).
_COMPACT_DEAD_FRACTION = 0.25
_COMPACT_MIN_ROWS = 32

# A single query scores the whole matrix (dense plan) instead of gathering
# its candidate rows once the candidates exceed this fraction of the
# occupied region.  Measured on the 24 000 x 64 float32 arena, one BLAS
# thread: ``matrix[rows] @ unit`` costs ~40 ns per gathered row,
# ``matrix @ unit`` ~10 ns per row, and the two plans cross between 0.20
# and 0.25 (table in DESIGN.md "Index internals").
_DENSE_PLAN_FRACTION = 0.25

# Largest query block scored as ``matrix @ units.T`` (see ``search_batch``);
# same arena, same host: 293 vs 557 us per query at 2 queries, 97 vs 103 at
# 16, 187 vs 107 at 32.
_TALL_GEMM_MAX_QUERIES = 16


def select_topk(scores: np.ndarray, limit: int) -> np.ndarray:
    """Positions of the ``limit`` largest scores plus every boundary tie.

    The one top-k cut of the index layer: ``np.partition`` finds the
    ``limit``-th largest score in O(n) and everything ``>=`` it is kept, so
    a caller that breaks ties on something other than the score (the
    canonical ``str(key)`` order) still sees every contender.  Positions
    come back ascending, not ranked.
    """
    if scores.size <= limit:
        return np.arange(scores.size)
    boundary = np.partition(scores, scores.size - limit)[scores.size - limit]
    return np.flatnonzero(scores >= boundary)


def rank_order(pair: tuple[object, float]) -> tuple[float, str]:
    """Canonical result order: score descending, then ``str(key)`` ascending."""
    return -pair[1], str(pair[0])


class VectorArena:
    """Contiguous, growable storage of named unit vectors (+ signatures).

    Parameters
    ----------
    dim:
        Vector dimensionality; every stored row is a ``float32`` unit
        vector of this length.
    signature_words:
        Number of packed ``uint64`` signature words stored per row (0 when
        the owning index needs none).
    initial_capacity:
        Rows allocated up front; capacity doubles on demand.

    Rows are append-only between compactions, so a row id handed out by
    :meth:`add` stays valid until :attr:`generation` changes.  Deletion
    tombstones the row (clears its alive bit); the matrix slot is
    reclaimed by the next compaction.
    """

    dtype = np.float32

    def __init__(
        self,
        dim: int,
        *,
        signature_words: int = 0,
        initial_capacity: int = 64,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if signature_words < 0:
            raise ValueError(f"signature_words must be >= 0, got {signature_words}")
        self.dim = dim
        self.signature_words = signature_words
        capacity = max(1, initial_capacity)
        self._matrix = np.zeros((capacity, dim), dtype=self.dtype)
        self._signatures = (
            np.zeros((capacity, signature_words), dtype=np.uint64)
            if signature_words
            else None
        )
        self._alive = np.zeros(capacity, dtype=bool)
        self._keys: list[object] = []
        self._rows: dict[object, int] = {}
        self._size = 0  # high-water mark: rows 0.._size-1 are occupied or dead
        self._live = 0
        self.generation = 0
        # Monotonic count of content mutations (adds, removes,
        # compactions).  Unlike ``generation`` — which only moves when row
        # ids are reassigned and therefore drives derived-structure
        # rebuilds — this bumps on *every* change to what a query could
        # return, so result caches key on it for implicit invalidation.
        self.mutation_generation = 0

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    def __repr__(self) -> str:
        return (
            f"VectorArena(live={self._live}, rows={self._size}, "
            f"capacity={len(self._alive)}, dim={self.dim}, "
            f"signature_words={self.signature_words})"
        )

    @property
    def size(self) -> int:
        """Occupied rows (live + tombstoned); the extent every scan covers."""
        return self._size

    @property
    def dead_count(self) -> int:
        """Tombstoned rows awaiting compaction."""
        return self._size - self._live

    @property
    def matrix(self) -> np.ndarray:
        """View of the occupied region of the vector matrix (no copy)."""
        return self._matrix[: self._size]

    @property
    def signatures(self) -> np.ndarray:
        """View of the occupied region of the packed signature matrix."""
        if self._signatures is None:
            raise ValueError("arena was built without signature storage")
        return self._signatures[: self._size]

    @property
    def alive(self) -> np.ndarray:
        """Boolean liveness mask over the occupied region (no copy)."""
        return self._alive[: self._size]

    def keys(self) -> list[object]:
        """Live keys in row (= insertion, compaction-stable) order."""
        return [key for row, key in enumerate(self._keys) if self._alive[row]]

    def row_of(self, key: object) -> int:
        """Current row id of ``key``; raises ``KeyError`` when absent."""
        return self._rows[key]

    def key_at(self, row: int) -> object:
        """Key stored at a live row id."""
        return self._keys[row]

    def vector_of(self, key: object) -> np.ndarray:
        """Copy of the stored unit vector (``float32``)."""
        return self._matrix[self._rows[key]].copy()

    def live_rows(self) -> np.ndarray:
        """Row ids of all live entries, ascending."""
        return np.flatnonzero(self.alive)

    # -- canonical validation ----------------------------------------------------

    def coerce_unit(self, vector: np.ndarray) -> np.ndarray | None:
        """Unit-normalized ``float32`` copy, or ``None`` for a zero vector.

        The single place vector inputs are checked: anything that is not a
        1-D array of length ``dim`` raises
        :class:`~repro.errors.DimensionMismatchError`, for every backend
        alike.  Normalization happens in ``float64`` before the single
        ``float32`` downcast — bit-identical to the batched path in
        :meth:`add_batch`.
        """
        vector = np.asarray(vector)
        if vector.ndim != 1 or vector.shape != (self.dim,):
            raise DimensionMismatchError(self.dim, int(np.prod(vector.shape)))
        promoted = vector.astype(np.float64, copy=False)
        norm = float(np.linalg.norm(promoted))
        if norm == 0.0:
            return None
        return (promoted / norm).astype(self.dtype)

    def coerce_signature(self, signature: np.ndarray) -> np.ndarray:
        """Validate one packed signature row (shape ``(signature_words,)``)."""
        signature = np.asarray(signature, dtype=np.uint64)
        if signature.shape != (self.signature_words,):
            raise DimensionMismatchError(
                self.signature_words, int(np.prod(signature.shape))
            )
        return signature

    # -- mutation ----------------------------------------------------------------

    def _grow(self, minimum: int) -> None:
        capacity = max(1, len(self._alive))
        while capacity < minimum:
            capacity *= 2
        grown = np.zeros((capacity, self.dim), dtype=self.dtype)
        grown[: self._size] = self._matrix[: self._size]
        self._matrix = grown
        if self._signatures is not None:
            grown_signatures = np.zeros(
                (capacity, self.signature_words), dtype=np.uint64
            )
            grown_signatures[: self._size] = self._signatures[: self._size]
            self._signatures = grown_signatures
        grown_alive = np.zeros(capacity, dtype=bool)
        grown_alive[: self._size] = self._alive[: self._size]
        self._alive = grown_alive

    def add(
        self,
        key: object,
        vector: np.ndarray,
        signature: np.ndarray | None = None,
        *,
        assume_unit: bool = False,
    ) -> int:
        """Append one named vector; returns its row id.

        The vector is validated (:meth:`coerce_unit`), rejected when zero
        (cosine against a zero vector is undefined), unit-normalized, and
        stored as ``float32``.  ``assume_unit`` skips re-normalization when
        the caller already holds a coerced unit row (the index base class
        does, because it derives the signature from it).  Keys are unique:
        re-adding a live key raises ``ValueError``.  When the arena stores
        signatures, one packed row of ``signature_words`` ``uint64`` words
        is required.
        """
        if key in self._rows:
            raise ValueError(f"key {key!r} already indexed; use update()")
        unit = vector if assume_unit else self.coerce_unit(vector)
        if unit is None:
            raise ValueError(f"cannot index zero vector under key {key!r}")
        if self.signature_words:
            if signature is None:
                raise ValueError("arena stores signatures; add() requires one")
            signature = self.coerce_signature(signature)
        row = self._size
        if row >= len(self._alive):
            self._grow(row + 1)
        self._matrix[row] = unit
        if self._signatures is not None:
            self._signatures[row] = signature
        self._alive[row] = True
        self._keys.append(key)
        self._rows[key] = row
        self._size += 1
        self._live += 1
        self.mutation_generation += 1
        return row

    def add_batch(
        self,
        keys: list[object],
        matrix: np.ndarray,
        signatures: np.ndarray | None = None,
        *,
        assume_unit: bool = False,
    ) -> np.ndarray:
        """Append many rows at once; returns their row ids.

        ``matrix`` rows are normalized in one vectorized pass; zero rows
        raise ``ValueError`` (same contract as :meth:`add`).
        ``assume_unit`` skips the normalization pass when the caller
        already validated and normalized the rows (the index base class
        does, because it derives signatures from them).
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise DimensionMismatchError(
                self.dim, matrix.shape[-1] if matrix.ndim else 0
            )
        if len(keys) != matrix.shape[0]:
            raise ValueError(
                f"{len(keys)} keys for {matrix.shape[0]} matrix rows"
            )
        for key in keys:
            if key in self._rows:
                raise ValueError(f"key {key!r} already indexed; use update()")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys in one add_batch() call")
        if assume_unit:
            units = matrix.astype(self.dtype, copy=False)
        else:
            norms = np.linalg.norm(matrix.astype(np.float64, copy=False), axis=1)
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise ValueError(
                    f"cannot index zero vector under key {keys[int(zero[0])]!r}"
                )
            units = (matrix / norms[:, None]).astype(self.dtype)
        if self.signature_words:
            if signatures is None:
                raise ValueError("arena stores signatures; add_batch() requires them")
            signatures = np.asarray(signatures, dtype=np.uint64)
            if signatures.shape != (len(keys), self.signature_words):
                raise DimensionMismatchError(
                    self.signature_words,
                    signatures.shape[-1] if signatures.ndim else 0,
                )
        start = self._size
        count = len(keys)
        if start + count > len(self._alive):
            self._grow(start + count)
        self._matrix[start : start + count] = units
        if self._signatures is not None:
            self._signatures[start : start + count] = signatures
        self._alive[start : start + count] = True
        for offset, key in enumerate(keys):
            self._keys.append(key)
            self._rows[key] = start + offset
        self._size += count
        self._live += count
        self.mutation_generation += 1
        return np.arange(start, start + count)

    def remove(self, key: object) -> bool:
        """Tombstone one key; returns whether a compaction was triggered.

        O(1): the row's alive bit is cleared and its matrix slot left in
        place.  Once dead rows exceed 25% of the occupied region
        (``_COMPACT_DEAD_FRACTION``) the arena compacts (stable rewrite,
        ``generation`` bump) so scans stay within a bounded factor of the
        live count.
        """
        row = self._rows.pop(key, None)
        if row is None:
            raise KeyError(f"key {key!r} is not indexed")
        self._alive[row] = False
        self._keys[row] = None
        self._live -= 1
        self.mutation_generation += 1
        if (
            self._size >= _COMPACT_MIN_ROWS
            and self.dead_count > self._size * _COMPACT_DEAD_FRACTION
        ):
            self.compact()
            return True
        return False

    def touch(self) -> None:
        """Bump :attr:`mutation_generation` without changing any content.

        For owners that must signal "derived state is stale" when a
        logical mutation leaves the stored rows untouched — e.g.
        dropping a table whose columns were already all evicted.
        """
        self.mutation_generation += 1

    def compact(self) -> None:
        """Rewrite live rows densely, preserving order; bumps ``generation``.

        O(live · dim).  Row ids change, so owners holding row-addressed
        structures (LSH bucket postings, pivot distance tables) must treat
        a ``generation`` change as an invalidation signal.
        """
        if self.dead_count == 0:
            return
        live = self.live_rows()
        count = int(live.size)
        self._matrix[:count] = self._matrix[live]
        if self._signatures is not None:
            self._signatures[:count] = self._signatures[live]
        self._alive[:count] = True
        self._alive[count : self._size] = False
        self._keys = [self._keys[row] for row in live]
        self._rows = {key: row for row, key in enumerate(self._keys)}
        self._size = count
        self._live = count
        self.generation += 1
        self.mutation_generation += 1

class ColumnarIndex:
    """Shared arena-backed base for the cosine index backends.

    Owns the :class:`VectorArena` plus the add/remove/update lifecycle and
    both search paths (:meth:`query`, :meth:`search_batch`); subclasses
    contribute candidate generation (:meth:`_candidate_mask`) and any
    derived structures via the ``_after_add`` / ``build`` hooks.
    """

    #: default cosine floor applied when a query passes ``threshold=None``
    threshold: float = -1.0

    def __init__(self, dim: int, *, signature_words: int = 0) -> None:
        self.dim = dim
        self._arena = VectorArena(dim, signature_words=signature_words)

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._arena)

    def __contains__(self, key: object) -> bool:
        return key in self._arena

    @property
    def arena(self) -> VectorArena:
        """The backing columnar store (shared-substrate introspection)."""
        return self._arena

    @property
    def mutation_generation(self) -> int:
        """Monotonic counter covering every content mutation.

        Any change to what a query could return — add, remove, update,
        bulk load, compaction — moves it, so a result
        cached under one value is implicitly invalid under any other (the
        :class:`~repro.service.qcache.QueryResultCache` key contract).
        """
        return self._arena.mutation_generation

    def touch(self) -> None:
        """Advance :attr:`mutation_generation` without a content change."""
        self._arena.touch()

    def keys(self) -> list[object]:
        """Live keys in insertion order."""
        return self._arena.keys()

    def vector_of(self, key: object) -> np.ndarray:
        """Stored unit vector of ``key`` (``float32`` copy)."""
        return self._arena.vector_of(key)

    def export_rows(self) -> tuple[list[object], np.ndarray]:
        """Live ``(keys, vectors)`` in insertion order.

        The durable store's checkpoint gather point.
        """
        arena = self._arena
        live = arena.live_rows()
        keys = [arena.key_at(int(row)) for row in live]
        return keys, arena.matrix[live]

    # -- construction -------------------------------------------------------------

    def _signature_for(self, unit: np.ndarray) -> np.ndarray | None:
        """Packed signature row for one unit vector (``None`` = no signatures)."""
        return None

    def _signatures_for(self, units: np.ndarray) -> np.ndarray | None:
        """Packed signature rows for a unit-row matrix."""
        return None

    def _after_add(self, row: int) -> None:
        """Hook: a row was appended (update row-addressed structures)."""

    def _after_remove(self) -> None:
        """Hook: a row was tombstoned (invalidate derived structures)."""

    def add(self, key: object, vector: np.ndarray) -> None:
        """Insert one named vector (unit-normalized into the arena).

        Zero vectors are rejected (no direction, cosine undefined); keys
        are unique — re-adding a live key raises ``ValueError`` (use
        :meth:`update`).  Dimension mismatches raise
        :class:`~repro.errors.DimensionMismatchError` on every backend.
        """
        unit = self._arena.coerce_unit(vector)
        if unit is None:
            raise ValueError(f"cannot index zero vector under key {key!r}")
        row = self._arena.add(key, unit, self._signature_for(unit), assume_unit=True)
        self._after_add(row)

    def add_many(self, items: list[tuple[object, np.ndarray]]) -> None:
        """Insert many named vectors."""
        for key, vector in items:
            self.add(key, vector)

    def _after_bulk(self, rows: np.ndarray) -> None:
        """Hook: many rows were appended at once (default: per-row hook)."""
        for row in rows:
            self._after_add(int(row))

    def bulk_load(
        self,
        keys: list[object],
        matrix: np.ndarray,
        *,
        assume_unit: bool = False,
    ) -> None:
        """Vectorized bulk insert of ``len(keys)`` rows in one pass.

        The columnar fast path: one normalization pass, one batched
        signature computation, one arena append, one wholesale
        derived-structure rebuild.  Used by index builds and store
        recovery; results are identical to repeated :meth:`add` calls.
        ``assume_unit`` stores rows that already are this arena's
        ``float32`` units (a recovered store's) bit for bit, with no
        second normalization pass.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise DimensionMismatchError(
                self.dim, matrix.shape[-1] if matrix.ndim else 0
            )
        if len(keys) != matrix.shape[0]:
            raise ValueError(f"{len(keys)} keys for {matrix.shape[0]} matrix rows")
        if assume_unit:
            units = matrix.astype(self._arena.dtype, copy=False)
        else:
            # Normalize once here (zero rows rejected, same contract as
            # add) so the signature pass and the arena share the units.
            norms = np.linalg.norm(matrix.astype(np.float64, copy=False), axis=1)
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise ValueError(
                    f"cannot index zero vector under key {keys[int(zero[0])]!r}"
                )
            units = (matrix / norms[:, None]).astype(self._arena.dtype)
        signatures = self._signatures_for(units)
        rows = self._arena.add_batch(keys, units, signatures, assume_unit=True)
        self._after_bulk(rows)

    def remove(self, key: object) -> None:
        """Tombstone one key in O(1); raises ``KeyError`` when absent.

        The arena compacts itself once tombstones pass the dead-fraction
        threshold; derived structures resynchronize lazily via the arena's
        ``generation`` counter (or eagerly on :meth:`build`).
        """
        self._arena.remove(key)
        self._after_remove()

    def update(self, key: object, vector: np.ndarray) -> None:
        """Replace (or insert) the vector stored under ``key``."""
        if key in self._arena:
            self.remove(key)
        self.add(key, vector)

    def build(self) -> None:
        """Eagerly rebuild derived structures (idempotent).

        Queries resynchronize lazily on first use; the serving layer calls
        this after mutations (under its write lock) so the shared read
        path never writes state.  The base index derives nothing; the
        LSH and pivot backends override this.
        """

    # -- query validation ---------------------------------------------------------

    def _check_query(self, k: int) -> None:
        if len(self._arena) == 0:
            raise EmptyIndexError(f"query on empty {type(self).__name__}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")

    def _coerce_queries(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Validate a query block; returns (unit rows float32, zero-row mask)."""
        queries = np.asarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatchError(
                self.dim, queries.shape[-1] if queries.ndim else 0
            )
        norms = np.linalg.norm(queries.astype(np.float64, copy=False), axis=1)
        zero = norms == 0.0
        safe = np.where(zero, 1.0, norms)
        units = (queries / safe[:, None]).astype(self._arena.dtype)
        return units, zero

    # -- search -------------------------------------------------------------------

    def _candidate_mask(self, unit: np.ndarray, floor: float) -> np.ndarray:
        """Hook: boolean mask over the occupied rows of this query's candidates.

        The one place a backend's pruning structure meets the read path:
        both :meth:`query` and :meth:`search_batch` score, AND the scores
        with this mask and the floor, and select.  Always a subset of
        ``alive``; the default (exact scan) is ``alive`` itself.
        """
        return self._arena.alive

    def _assemble(
        self, rows: np.ndarray, scores: np.ndarray, k: int, exclude: object
    ) -> list[tuple[object, float]]:
        """Rank above-floor scored rows into at most ``k`` ``(key, score)``s.

        Ordering is canonical across backends: score descending, then
        ``str(key)`` ascending.  :func:`select_topk` cuts in numpy first, so
        only ``k`` (+1 for a possible exclusion) rows plus boundary ties
        ever become Python objects.
        """
        top = select_topk(scores, k + (exclude is not None))
        key_at = self._arena.key_at
        scored = [
            (key_at(row), score)
            for row, score in zip(rows[top].tolist(), scores[top].tolist())
        ]
        if exclude is not None:
            scored = [pair for pair in scored if pair[0] != exclude]
        scored.sort(key=rank_order)
        return scored[:k]

    def _rank(
        self, unit: np.ndarray, mask: np.ndarray, floor: float, k: int, exclude: object
    ) -> list[tuple[object, float]]:
        """Exact-cosine top-``k`` of one unit query over the rows in ``mask``.

        Two plans, same answer: a sparse mask gathers its rows and scores
        only those; past ``_DENSE_PLAN_FRACTION`` of the arena the gather
        costs more than scoring everything, so the whole matrix is scored
        and the mask applied to the score vector.
        """
        arena = self._arena
        if np.count_nonzero(mask) > _DENSE_PLAN_FRACTION * arena.size:
            scores = arena.matrix @ unit
            rows = np.flatnonzero(mask & (scores >= floor))
            return self._assemble(rows, scores[rows], k, exclude)
        rows = np.flatnonzero(mask)
        scores = arena.matrix[rows] @ unit
        keep = scores >= floor
        return self._assemble(rows[keep], scores[keep], k, exclude)

    def query(
        self,
        vector: np.ndarray,
        k: int,
        *,
        threshold: float | None = None,
        exclude: object = None,
    ) -> list[tuple[object, float]]:
        """Top-``k`` keys by exact cosine among the backend's candidates.

        ``threshold`` overrides the index default; ``exclude`` drops one key
        (conventionally the query column itself).  A zero query returns
        ``[]``.  Raises :class:`~repro.errors.EmptyIndexError` on an empty
        index.
        """
        self._check_query(k)
        unit = self._arena.coerce_unit(vector)
        if unit is None:
            return []
        floor = self.threshold if threshold is None else threshold
        return self._rank(unit, self._candidate_mask(unit, floor), floor, k, exclude)

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        threshold: float | None = None,
        excludes: list[object] | None = None,
    ) -> list[list[tuple[object, float]]]:
        """Batched top-``k``: one matrix product for the whole query block.

        Semantically identical to calling :meth:`query` once per row of
        ``queries`` (same result set, same ordering, scores equal up to
        float32 reduction order): the scoring runs as a single
        ``(n_queries × dim) @ (dim × n_rows)`` BLAS GEMM, then each query's
        score row goes through the same *mask ∧ floor → select* steps as
        :meth:`query`'s dense plan — its own :meth:`_candidate_mask`, one
        vectorized compare, one :func:`select_topk`.  Transient memory is
        the ``n_queries × n_rows`` score block at any floor.

        ``excludes`` optionally drops one key per query (parallel list).
        Raises :class:`~repro.errors.EmptyIndexError` on an empty index and
        :class:`~repro.errors.DimensionMismatchError` on a shape mismatch.
        """
        self._check_query(k)
        units, zero = self._coerce_queries(queries)
        n_queries = units.shape[0]
        if excludes is not None and len(excludes) != n_queries:
            raise ValueError(
                f"{len(excludes)} excludes for {n_queries} queries"
            )
        floor = self.threshold if threshold is None else threshold
        if n_queries == 0:
            return []
        arena = self._arena
        if n_queries <= _TALL_GEMM_MAX_QUERIES:
            # Same GEMM either way round: BLAS runs the tall orientation
            # ~2x faster on a small block, but its per-query scores come
            # out strided, which costs more than that past ~16 queries.
            block = (arena.matrix @ units.T).T
        else:
            block = units @ arena.matrix.T
        results: list[list[tuple[object, float]]] = []
        for query, unit in enumerate(units):
            if zero[query]:
                results.append([])
                continue
            exclude = excludes[query] if excludes is not None else None
            scores = block[query]
            mask = self._candidate_mask(unit, floor)
            rows = np.flatnonzero(mask & (scores >= floor))
            results.append(self._assemble(rows, scores[rows], k, exclude))
        return results
