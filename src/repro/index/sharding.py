"""Sharded parallel query engine over per-shard columnar arenas.

One monolithic :class:`~repro.index.arena.VectorArena` scores every query
on one core and locks the world on every compaction.  Partitioned indexes
are how systems at this scale parallelize (LSH Ensemble partitions by set
size; embedding services partition by hash): :class:`ShardedIndex` splits
the corpus across ``n_shards`` independent backend instances — each with
its own arena, buckets, pivot tables, tombstones, and compaction schedule
— and makes the partitioning invisible to callers:

* **placement** is deterministic: ``hash`` (default) routes a key by a
  stable hash of its table identity, so the columns of one table colocate
  and a table drop touches one shard; ``round_robin`` balances corpus
  loads exactly.  A key→shard map preserves global insertion order and
  O(1) ownership lookups.
* **search fan-out**: ``query`` / ``search_batch`` dispatch every
  non-empty shard onto a shared :class:`~concurrent.futures.ThreadPoolExecutor`
  (numpy GEMMs release the GIL, so shards score in parallel on multi-core
  hosts) with the calling thread scoring the last shard itself.
* **top-k merge**: each shard returns its own exact top-k above the same
  floor, so the global top-k is a subset of the union; the merge selects
  it with the index layer's one top-k kernel
  (:func:`~repro.index.arena.select_topk`) plus the canonical
  (score desc, ``str(key)`` asc) tie-break — results are *identical* to a
  1-shard index over the same corpus (pinned by property tests across
  all three backends).
* **mutations stay shard-local**: add/remove/update route to the owning
  shard, so a compaction triggered by churn rewrites one shard's arena
  while the others keep serving untouched.

The wrapper exposes the same surface :class:`~repro.index.arena.ColumnarIndex`
does (``add``/``bulk_load``/``remove``/``update``/``build``/``query``/
``search_batch``/``keys``/``vector_of``/``export_rows``), so WarpGate and
the serving layer treat both interchangeably.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro._util import stable_uint64
from repro.errors import DimensionMismatchError, EmptyIndexError
from repro.index.arena import rank_order, select_topk

__all__ = ["ShardedIndex"]

_PLACEMENTS = ("hash", "round_robin")

# One process-wide pool shared by every ShardedIndex: shard fan-out is
# GIL-releasing GEMM work, so a single pool sized to the machine serves
# any number of sharded indexes without thread explosions.
_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def _shared_executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            workers = max(2, (os.cpu_count() or 1))
            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="shard"
            )
        return _pool


def _placement_key(key: object) -> str:
    """Stable placement identity: table address for refs, str otherwise."""
    table_key = getattr(key, "table_key", None)
    if table_key is not None:
        return "\x1f".join(str(part) for part in table_key)
    return str(key)


class ShardedIndex:
    """Partitioned cosine index: S independent shards, one logical index.

    Parameters
    ----------
    dim:
        Vector dimensionality (every shard validates against it).
    factory:
        Zero-argument callable building one backend shard (e.g. a
        configured :class:`~repro.index.lsh.SimHashLSHIndex`).  Called
        ``n_shards`` times; shards must be identically configured for
        merged results to equal the 1-shard index.
    n_shards:
        Number of partitions.
    placement:
        ``hash`` (stable hash of table identity) or ``round_robin``.
    """

    def __init__(
        self,
        dim: int,
        factory,
        *,
        n_shards: int,
        placement: str = "hash",
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if placement not in _PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; choose from {_PLACEMENTS}"
            )
        self.dim = dim
        self.n_shards = n_shards
        self.placement = placement
        self.shards = tuple(factory() for _ in range(n_shards))
        for shard in self.shards:
            if shard.dim != dim:
                raise ValueError(
                    f"factory built a shard with dim {shard.dim}, expected {dim}"
                )
        # key -> shard id; also the global insertion order (dicts preserve
        # it), so keys() matches the 1-shard index exactly.
        self._owner: dict[object, int] = {}
        self._next_shard = 0  # round-robin cursor

    def __repr__(self) -> str:
        sizes = ",".join(str(len(shard)) for shard in self.shards)
        return (
            f"ShardedIndex(n={len(self)}, shards={self.n_shards}[{sizes}], "
            f"placement={self.placement!r}, backend={type(self.shards[0]).__name__})"
        )

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._owner)

    def __contains__(self, key: object) -> bool:
        return key in self._owner

    @property
    def threshold(self) -> float:
        """Default cosine floor (shared by every shard)."""
        return self.shards[0].threshold

    @property
    def mutation_generation(self) -> int:
        """Monotonic content-mutation counter across all shards.

        The sum of shard-local counters: each only ever grows, so the sum
        is monotonic, and any mutation anywhere (including a shard-local
        compaction) moves it — the same implicit-invalidation contract the
        single-arena :attr:`ColumnarIndex.mutation_generation` offers.
        """
        return sum(shard.mutation_generation for shard in self.shards)

    def touch(self) -> None:
        """Advance :attr:`mutation_generation` without a content change."""
        self.shards[0].touch()

    def keys(self) -> list[object]:
        """Live keys in global insertion order."""
        return list(self._owner)

    def vector_of(self, key: object) -> np.ndarray:
        """Stored unit vector of ``key`` (``float32`` copy)."""
        return self.shards[self._owner[key]].vector_of(key)

    def shard_of(self, key: object) -> int:
        """Shard id owning ``key``; raises ``KeyError`` when absent."""
        return self._owner[key]

    def shard_sizes(self) -> list[int]:
        """Live entries per shard (placement balance diagnostics)."""
        return [len(shard) for shard in self.shards]

    # -- placement ----------------------------------------------------------------

    def _place(self, key: object) -> int:
        if self.placement == "hash":
            return int(stable_uint64(_placement_key(key), salt="shard") % self.n_shards)
        chosen = self._next_shard
        self._next_shard = (chosen + 1) % self.n_shards
        return chosen

    # -- mutation -----------------------------------------------------------------

    def add(self, key: object, vector: np.ndarray) -> None:
        """Insert one named vector into its owning shard."""
        if key in self._owner:
            raise ValueError(f"key {key!r} already indexed; use update()")
        shard_id = self._place(key)
        self.shards[shard_id].add(key, vector)
        self._owner[key] = shard_id

    def add_many(self, items: list[tuple[object, np.ndarray]]) -> None:
        """Insert many named vectors."""
        for key, vector in items:
            self.add(key, vector)

    def bulk_load(
        self,
        keys: list[object],
        matrix: np.ndarray,
        *,
        signatures: np.ndarray | None = None,
    ) -> None:
        """Partition a bulk insert across shards (one bulk pass per shard).

        Everything a shard could reject — shapes, duplicates, zero rows,
        signature alignment — is validated *before* any shard mutates, so
        a bad batch never leaves some shards loaded and others not.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise DimensionMismatchError(
                self.dim, matrix.shape[-1] if matrix.ndim else 0
            )
        if len(keys) != matrix.shape[0]:
            raise ValueError(f"{len(keys)} keys for {matrix.shape[0]} matrix rows")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys in one bulk_load() call")
        for key in keys:
            if key in self._owner:
                raise ValueError(f"key {key!r} already indexed; use update()")
        if signatures is not None:
            signatures = np.asarray(signatures)
            if signatures.ndim != 2 or signatures.shape[0] != len(keys):
                raise ValueError(
                    f"signatures shape {signatures.shape} does not align with "
                    f"{len(keys)} keys"
                )
        norms = np.linalg.norm(matrix.astype(np.float64, copy=False), axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValueError(
                f"cannot index zero vector under key {keys[int(zero[0])]!r}"
            )
        partitions: list[list[int]] = [[] for _ in range(self.n_shards)]
        owners = [self._place(key) for key in keys]
        for position, shard_id in enumerate(owners):
            partitions[shard_id].append(position)
        for shard_id, positions in enumerate(partitions):
            if not positions:
                continue
            rows = np.asarray(positions, dtype=np.int64)
            self.shards[shard_id].bulk_load(
                [keys[p] for p in positions],
                matrix[rows],
                signatures=None if signatures is None else signatures[rows],
            )
        # Commit ownership only after every shard accepted its partition.
        for key, shard_id in zip(keys, owners):
            self._owner[key] = shard_id

    def remove(self, key: object) -> None:
        """Tombstone one key in its owning shard (shard-local compaction)."""
        shard_id = self._owner.get(key)
        if shard_id is None:
            raise KeyError(f"key {key!r} is not indexed")
        self.shards[shard_id].remove(key)
        del self._owner[key]

    def update(self, key: object, vector: np.ndarray) -> None:
        """Replace (or insert) the vector stored under ``key``.

        Updates stay on the owning shard, so placement never drifts under
        refresh churn (round-robin included).
        """
        shard_id = self._owner.get(key)
        if shard_id is None:
            self.add(key, vector)
            return
        self.shards[shard_id].update(key, vector)

    def build(self) -> None:
        """Eagerly rebuild every non-empty shard's derived structures."""
        for shard in self.shards:
            if len(shard) > 0:
                shard.build()

    # -- quantization -------------------------------------------------------------

    def enable_quantization(self, rerank_factor: int = 4, **kwargs) -> None:
        """Enable int8 candidate scoring on every shard."""
        for shard in self.shards:
            shard.enable_quantization(rerank_factor, **kwargs)

    def disable_quantization(self) -> None:
        for shard in self.shards:
            shard.disable_quantization()

    @property
    def quantizer(self):
        """Shard 0's quantizer (``None`` when quantization is off)."""
        return self.shards[0].quantizer

    def set_rerank_factor(self, rerank_factor: int) -> None:
        """Retune re-rank breadth on every shard (no-op when off)."""
        for shard in self.shards:
            shard.set_rerank_factor(rerank_factor)

    # -- export -------------------------------------------------------------------

    def export_rows(self) -> tuple[list[object], np.ndarray, np.ndarray | None]:
        """Gather ``(keys, vectors, signatures)`` across all shards.

        Concatenated per shard; alignment between the three parts is
        preserved.  The persistence layer re-sorts by ref, so the
        cross-shard order carries no meaning.
        """
        parts = [
            shard.export_rows() for shard in self.shards if len(shard) > 0
        ]
        if not parts:
            return [], np.zeros((0, self.dim), dtype=np.float32), None
        keys = [key for part in parts for key in part[0]]
        vectors = np.concatenate([part[1] for part in parts])
        signatures = (
            np.concatenate([part[2] for part in parts])
            if parts[0][2] is not None
            else None
        )
        return keys, vectors, signatures

    # -- search -------------------------------------------------------------------

    def _live_shards(self) -> list:
        return [shard for shard in self.shards if len(shard) > 0]

    def _check_query(self, k: int) -> None:
        if len(self) == 0:
            raise EmptyIndexError("query on empty ShardedIndex")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")

    def _fan_out(self, tasks: list) -> list:
        """Run per-shard thunks, pool for all but the last (run inline).

        With one live shard this degenerates to a plain call — no pool
        round-trip on the 1-shard configuration.
        """
        if len(tasks) == 1:
            return [tasks[0]()]
        executor = _shared_executor()
        futures = [executor.submit(task) for task in tasks[:-1]]
        last = tasks[-1]()
        return [future.result() for future in futures] + [last]

    @staticmethod
    def _merge_topk(
        per_shard: list[list[tuple[object, float]]], k: int
    ) -> list[tuple[object, float]]:
        """Global top-k from per-shard top-k lists.

        Every global top-k entry is inside its own shard's top-k, so the
        union is a superset; :func:`~repro.index.arena.select_topk` keeps
        all entries tied with the boundary score, so the canonical
        ``str(key)`` tie-break stays globally correct.
        """
        merged = [pair for part in per_shard for pair in part]
        if len(merged) > k:
            scores = np.array([score for _key, score in merged])
            merged = [merged[position] for position in select_topk(scores, k).tolist()]
        merged.sort(key=rank_order)
        return merged[:k]

    def query(
        self,
        vector: np.ndarray,
        k: int,
        *,
        threshold: float | None = None,
        exclude: object = None,
    ) -> list[tuple[object, float]]:
        """Top-``k`` across all shards; identical to the 1-shard result."""
        self._check_query(k)
        vector = np.asarray(vector)
        if vector.ndim != 1 or vector.shape != (self.dim,):
            raise DimensionMismatchError(self.dim, int(np.prod(vector.shape)))
        floor = self.threshold if threshold is None else threshold
        live = self._live_shards()
        per_shard = self._fan_out(
            [
                (lambda shard=shard: shard.query(
                    vector, k, threshold=floor, exclude=exclude
                ))
                for shard in live
            ]
        )
        return self._merge_topk(per_shard, k)

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        threshold: float | None = None,
        excludes: list[object] | None = None,
    ) -> list[list[tuple[object, float]]]:
        """Batched top-``k``: one shard-parallel GEMM block per shard.

        Each shard runs its own one-GEMM ``search_batch`` over the whole
        query block (fanned out on the shared pool), then every query's
        per-shard top-k lists merge exactly as in :meth:`query`.
        """
        self._check_query(k)
        queries = np.asarray(queries)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatchError(
                self.dim, queries.shape[-1] if queries.ndim else 0
            )
        n_queries = queries.shape[0]
        if excludes is not None and len(excludes) != n_queries:
            raise ValueError(f"{len(excludes)} excludes for {n_queries} queries")
        if n_queries == 0:
            return []
        floor = self.threshold if threshold is None else threshold
        live = self._live_shards()
        per_shard = self._fan_out(
            [
                (lambda shard=shard: shard.search_batch(
                    queries, k, threshold=floor, excludes=excludes
                ))
                for shard in live
            ]
        )
        return [
            self._merge_topk([shard_block[q] for shard_block in per_shard], k)
            for q in range(n_queries)
        ]
