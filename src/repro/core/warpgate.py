"""WarpGate: embedding-based semantic join discovery (Figure 2).

Indexing pipeline: for every eligible column in the warehouse, scan a
(possibly sampled) slice through the metered connector, encode it into a
unit vector with the configured embedding model, and insert it into the
configured similarity index (SimHash LSH by default).

Search pipeline: scan + encode the query column the same way, probe the
index, and return candidates ranked by cosine similarity above the
threshold, excluding the query's own table.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro._util import chunked
from repro.core.system import IndexReport, JoinDiscoverySystem
from repro.core.candidates import DiscoveryResult, JoinCandidate, TimingBreakdown
from repro.core.config import WarpGateConfig
from repro.core.profiles import EmbeddingCache
from repro.embedding.encoder import ColumnEncoder, EncodeStats
from repro.embedding.registry import get_model
from repro.index.exact import ExactCosineIndex
from repro.index.lsh import SimHashLSHIndex
from repro.index.minhash import MinHashSignature
from repro.index.pivot import PivotFilterIndex
from repro.storage.column import Column
from repro.storage.schema import ColumnRef
from repro.warehouse.connector import WarehouseConnector
from repro.warehouse.sampling import Sampler, make_sampler

__all__ = ["WarpGate"]


class WarpGate(JoinDiscoverySystem):
    """The paper's system: semantic join discovery over a CDW.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.WarpGateConfig`; defaults to the
        paper's configuration (Web Table Embeddings, SimHash LSH, cosine
        threshold 0.7, full-pass indexing).
    cache:
        Optional shared :class:`~repro.core.profiles.EmbeddingCache`; when
        given, queries over already-profiled columns skip load + embed.
    """

    name = "warpgate"

    def __init__(
        self,
        config: WarpGateConfig | None = None,
        *,
        cache: EmbeddingCache | None = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else WarpGateConfig()
        self.cache = cache
        self._model = get_model(self.config.model_name, dim=self.config.dim)
        self.encoder = ColumnEncoder(
            self._model,
            aggregation=self.config.aggregation,
            include_column_name=self.config.include_column_name,
            dedupe_values=self.config.dedupe_values,
            numeric_profile_weight=self.config.numeric_profile_weight,
        )
        self._index = self._build_index()
        # Hybrid-scoring sketch cache: ref -> (MinHash signature, distinct
        # count) of the scanned values, captured during indexing so search
        # time pays no extra warehouse scans for candidates.
        self._signatures: dict[ColumnRef, tuple[MinHashSignature, int]] = {}

    def _build_index(self):
        """Instantiate the configured search backend."""
        if self.config.search_backend == "lsh":
            return SimHashLSHIndex(
                self.config.dim,
                n_bits=self.config.n_bits,
                n_bands=self.config.n_bands,
                threshold=self.config.threshold,
            )
        if self.config.search_backend == "exact":
            return ExactCosineIndex(self.config.dim)
        return PivotFilterIndex(self.config.dim, threshold=self.config.threshold)

    def _default_sampler(self) -> Sampler | None:
        if self.config.sample_size is None:
            return None
        return make_sampler(self.config.sampling_strategy, self.config.sample_size)

    # -- indexing pipeline ------------------------------------------------------------

    def index_corpus(
        self,
        connector: WarehouseConnector,
        *,
        sampler: Sampler | None = None,
        chunk_size: int | None = None,
    ) -> IndexReport:
        """Embed and index every eligible column (Figure 2, left half).

        The build streams in chunks of ``chunk_size`` columns (default:
        ``config.index_chunk_size``): each chunk is loaded through the
        metered connector, serialized and embedded in one
        :meth:`~repro.embedding.ColumnEncoder.encode_batch` call (deduped
        tokens, shared token-vector cache), and appended through the
        index's columnar bulk path — so a million-column corpus indexes in
        bounded memory while the embedding work stays vectorized.
        """
        self._connector = connector
        sampler = sampler if sampler is not None else self._default_sampler()
        chunk = chunk_size if chunk_size is not None else self.config.index_chunk_size
        if chunk <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk}")
        report = IndexReport(system=self.name)
        start = time.perf_counter()
        meter_before = connector.meter.charged_dollars
        bytes_before = connector.stats.scanned_bytes
        simulated_before = connector.stats.simulated_seconds

        embed_stats = EncodeStats()
        for chunk_refs in chunked(self.eligible_refs(connector), chunk):
            columns = [
                self.load_column(ref, sampler)[0] for ref in chunk_refs
            ]
            matrix, stats = self.encoder.encode_batch(columns)
            embed_stats.merge(stats)
            fresh_refs: list[ColumnRef] = []
            fresh_rows: list[int] = []
            for position, ref in enumerate(chunk_refs):
                vector = matrix[position]
                if not np.any(vector):
                    report.columns_skipped += 1
                    continue
                self._sketch(ref, columns[position])
                if ref in self._index:
                    # Re-indexing over an existing corpus replaces in place.
                    self._store(ref, vector)
                    report.columns_replaced += 1
                else:
                    fresh_refs.append(ref)
                    fresh_rows.append(position)
                    report.columns_indexed += 1
            if fresh_refs:
                self._index.bulk_load(fresh_refs, matrix[fresh_rows])
                if self.cache is not None:
                    for ref, row in zip(fresh_refs, fresh_rows):
                        self.cache.put(ref, matrix[row])

        report.wall_seconds = time.perf_counter() - start
        report.notes["chunk_size"] = chunk
        report.notes["embed"] = embed_stats.to_dict()
        report.simulated_load_seconds = (
            connector.stats.simulated_seconds - simulated_before
        )
        # Wall time already contains the measured scan cost; subtracting the
        # simulated component from it would double-count nothing because the
        # connector never sleeps — the two are disjoint by construction.
        report.scanned_bytes = connector.stats.scanned_bytes - bytes_before
        report.charged_dollars = connector.meter.charged_dollars - meter_before
        report.notes["sampler"] = repr(sampler) if sampler else "full-scan"
        report.notes["backend"] = self.config.search_backend
        self._indexed = True
        return report

    # -- hybrid-scoring sketches --------------------------------------------------------

    def _sketch(self, ref: ColumnRef, column: Column) -> None:
        """Capture the column's MinHash sketch + distinct count (hybrid only)."""
        if self.config.scoring != "hybrid":
            return
        distinct = {
            str(value) for value in column.distinct_values if value is not None
        }
        self._signatures[ref] = (MinHashSignature.of(distinct), len(distinct))

    def _query_signature(self, query: ColumnRef) -> tuple[MinHashSignature, int] | None:
        """Sketch of the query column's values; None without a connector.

        Indexed queries reuse the sketch captured at indexing time; fresh
        query columns are scanned once and their sketch cached alongside.
        """
        cached = self._signatures.get(query)
        if cached is not None:
            return cached
        if self._connector is None:
            return None
        column, _measured, _simulated = self.load_column(
            query, self._default_sampler()
        )
        distinct = {
            str(value) for value in column.distinct_values if value is not None
        }
        sketch = (MinHashSignature.of(distinct), len(distinct))
        self._signatures[query] = sketch
        return sketch

    # -- incremental mutation -----------------------------------------------------------

    def _store(self, ref: ColumnRef, vector: np.ndarray) -> None:
        """Insert or replace one embedding in the index."""
        if ref in self._index:
            self._index.update(ref, vector)
        else:
            self._index.add(ref, vector)
        if self.cache is not None:
            self.cache.put(ref, vector)

    def add_column(self, ref: ColumnRef, *, sampler: Sampler | None = None) -> bool:
        """Scan, embed, and index one column without a full re-index.

        Replaces the stored vector when ``ref`` is already indexed.
        Returns ``False`` when the column embeds to a zero vector (skipped,
        matching :meth:`index_corpus` behaviour).
        """
        return bool(self.add_columns([ref], sampler=sampler))

    def add_columns(
        self, refs: Sequence[ColumnRef], *, sampler: Sampler | None = None
    ) -> list[ColumnRef]:
        """Scan, embed, and index several columns in one batched pass.

        The incremental sibling of :meth:`index_corpus`: all columns load
        through the metered connector, embed in one
        :meth:`~repro.embedding.ColumnEncoder.encode_batch` call, and
        insert (or replace) individually.  Returns the refs actually
        indexed — columns embedding to the zero vector are skipped.
        """
        if not refs:
            return []
        sampler = sampler if sampler is not None else self._default_sampler()
        columns = [self.load_column(ref, sampler)[0] for ref in refs]
        matrix, _stats = self.encoder.encode_batch(columns)
        kept: list[ColumnRef] = []
        for position, ref in enumerate(refs):
            vector = matrix[position]
            if not np.any(vector):
                continue
            self._sketch(ref, columns[position])
            self._store(ref, vector)
            kept.append(ref)
        if kept:
            self._indexed = True
        return kept

    def remove_column(self, ref: ColumnRef) -> None:
        """Drop one column from the index; raises ``KeyError`` if absent."""
        if ref not in self._index:
            raise KeyError(f"{ref} is not indexed")
        self._index.remove(ref)
        self._signatures.pop(ref, None)
        if self.cache is not None:
            self.cache.invalidate(ref)
        if len(self._index) == 0:
            # Evicting the last column leaves nothing searchable; keep
            # is_indexed consistent with what search() can actually do.
            self._indexed = False

    def rebuild_index(self) -> None:
        """Eagerly rebuild derived index structures after mutations.

        The pivot and exact backends otherwise rebuild lazily inside
        ``query``; callers serving concurrent readers use this so the
        read path never writes shared state.
        """
        build = getattr(self._index, "build", None)
        if build is not None and len(self._index) > 0:
            build()

    def refresh_column(self, ref: ColumnRef, *, sampler: Sampler | None = None) -> bool:
        """Re-scan and re-embed one column in place (after data changes).

        A column that now embeds to a zero vector is evicted; returns
        whether the column is indexed afterwards.
        """
        refreshed = self.add_column(ref, sampler=sampler)
        if not refreshed and ref in self._index:
            self.remove_column(ref)
        return refreshed

    # -- search pipeline ----------------------------------------------------------------

    def embed_query(self, query: ColumnRef) -> tuple[np.ndarray, TimingBreakdown]:
        """Load (or recall from cache) and encode the query column."""
        timing = TimingBreakdown()
        if self.cache is not None:
            cached = self.cache.get(query)
            if cached is not None:
                return cached, timing
        sampler = self._default_sampler()
        column, measured, simulated = self.load_column(query, sampler)
        timing.load_measured_s = measured
        timing.load_simulated_s = simulated
        embed_start = time.perf_counter()
        # Same path as indexing: a single-column batch still hits the
        # value-tokenization and token-vector caches.
        matrix, _stats = self.encoder.encode_batch([column])
        vector = matrix[0]
        timing.embed_s = time.perf_counter() - embed_start
        if self.cache is not None and np.any(vector):
            self.cache.put(query, vector)
        return vector, timing

    def search(
        self,
        query: ColumnRef,
        k: int | None = None,
        *,
        threshold: float | None = None,
    ) -> DiscoveryResult:
        """Top-k semantic join discovery (Figure 2, right half).

        With ``config.scoring == "hybrid"`` results are ranked by the
        blended semantic+syntactic score instead of raw cosine, and
        ``threshold`` (when given) overrides the *blend* floor
        (``config.hybrid_floor``), not the cosine threshold.
        """
        self._require_indexed()
        vector, timing = self.embed_query(query)
        if not np.any(vector):
            return DiscoveryResult(query=query, candidates=[], timing=timing)
        if self.config.scoring == "hybrid":
            result = self._search_hybrid(query, vector, k, threshold)
        else:
            result = self.search_vector(vector, k, threshold=threshold, exclude=query)
        result.timing = timing + result.timing
        return result

    def _search_hybrid(
        self,
        query: ColumnRef,
        vector: np.ndarray,
        k: int | None,
        threshold: float | None,
    ) -> DiscoveryResult:
        """Rank candidates by ``w·cosine + (1-w)·containment``.

        Candidate generation probes the index down to the lowest cosine
        that could still clear the blend floor under perfect containment
        (``(floor - (1 - w)) / w``), over-fetching past ``k`` because the
        blend re-orders the cosine ranking.  The cosine-calibrated
        ``config.threshold`` is deliberately *not* applied to blended
        scores — it would discard exactly the moderate-cosine /
        high-containment pairs hybrid scoring exists to keep.

        Degrades to pure cosine scoring when the query's value set cannot
        be sketched (no connector and no indexed sketch, or an empty
        column).  Candidates indexed without a sketch (e.g. bulk-loaded
        vectors) contribute zero syntactic evidence.
        """
        k = k if k is not None else self.config.default_k
        if k <= 0:
            return DiscoveryResult(query=query, candidates=[], timing=TimingBreakdown())
        query_sketch = self._query_signature(query)
        if query_sketch is None or query_sketch[0].is_empty:
            return self.search_vector(vector, k, threshold=threshold, exclude=query)
        floor = self.config.hybrid_floor if threshold is None else threshold
        weight = self.config.hybrid_semantic_weight
        cosine_floor = max(-1.0, (floor - (1.0 - weight)) / weight)
        timing = TimingBreakdown()
        lookup_start = time.perf_counter()
        raw = self._probe(
            np.asarray(vector, dtype=np.float64),
            max(4 * k, 32),
            cosine_floor,
            query,
        )
        query_sig, query_size = query_sketch
        scored: list[tuple[ColumnRef, float]] = []
        for ref, cosine in raw:
            sketch = self._signatures.get(ref)
            containment = (
                query_sig.containment_estimate(sketch[0], query_size, sketch[1])
                if sketch is not None
                else 0.0
            )
            blended = weight * float(cosine) + (1.0 - weight) * containment
            if blended >= floor:
                scored.append((ref, blended))
        scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
        timing.lookup_s = time.perf_counter() - lookup_start
        return DiscoveryResult(
            query=query,
            candidates=[JoinCandidate(ref, score) for ref, score in scored[:k]],
            timing=timing,
        )

    def _probe(
        self,
        vector: np.ndarray,
        k: int,
        floor: float,
        exclude: ColumnRef | None,
    ) -> list[tuple[ColumnRef, float]]:
        """Probe the index, widening the over-fetch until ``k`` survive.

        The same-table filter can starve a fixed over-fetch when the query's
        own table concentrates many near-duplicate columns, so the fetch
        doubles until ``k`` results survive filtering or the index is
        exhausted.
        """
        if exclude is None:
            return self._index.query(vector, k, threshold=floor)
        total = len(self._index)
        fetch = k + 16
        while True:
            raw = self._index.query(vector, fetch, threshold=floor, exclude=exclude)
            kept = self.drop_same_table(raw, exclude, k)
            if len(kept) >= k or len(raw) < fetch or fetch >= total:
                return kept
            fetch = min(fetch * 2, total)

    def search_vector(
        self,
        vector: np.ndarray,
        k: int | None = None,
        *,
        threshold: float | None = None,
        exclude: ColumnRef | None = None,
    ) -> DiscoveryResult:
        """Search with a pre-computed embedding (no warehouse access).

        This is the query path of an index recovered without a connector
        (see :meth:`~repro.service.DiscoveryService.load_durable`) and of
        cached-profile queries.  The
        result's ``query`` is ``exclude`` when given, else ``None`` — a
        vector has no catalog address.
        """
        self._require_indexed()
        k = k if k is not None else self.config.default_k
        timing = TimingBreakdown()
        vector = np.asarray(vector, dtype=np.float64)
        if k <= 0 or not np.any(vector):
            return DiscoveryResult(query=exclude, candidates=[], timing=timing)
        lookup_start = time.perf_counter()
        kept = self._probe(
            vector,
            k,
            self.config.threshold if threshold is None else threshold,
            exclude,
        )
        timing.lookup_s = time.perf_counter() - lookup_start
        return DiscoveryResult(
            query=exclude,
            candidates=[JoinCandidate(ref, score) for ref, score in kept],
            timing=timing,
        )

    def search_vectors(
        self,
        vectors: list[np.ndarray],
        k: int | None = None,
        *,
        threshold: float | None = None,
        excludes: list[ColumnRef | None] | None = None,
    ) -> list[DiscoveryResult]:
        """Batched :meth:`search_vector`: one index pass for a query block.

        Results are identical to calling :meth:`search_vector` once per
        entry — the probe runs the index's ``search_batch`` (one GEMM over
        the arena), and any query starved by the same-table filter falls
        back to the widening single-query probe.  ``excludes`` is a
        parallel list of refs to drop (``None`` entries keep everything).
        Reported ``lookup_s`` is the block's wall time split evenly across
        the batch, since the index amortizes the work jointly.
        """
        self._require_indexed()
        k = k if k is not None else self.config.default_k
        floor = self.config.threshold if threshold is None else threshold
        count = len(vectors)
        exclude_list = list(excludes) if excludes is not None else [None] * count
        if len(exclude_list) != count:
            raise ValueError(f"{len(exclude_list)} excludes for {count} vectors")
        arrays = [np.asarray(vector, dtype=np.float64) for vector in vectors]
        results: list[DiscoveryResult | None] = [None] * count
        live: list[int] = []
        for position, vector in enumerate(arrays):
            if k <= 0 or not np.any(vector):
                results[position] = DiscoveryResult(
                    query=exclude_list[position],
                    candidates=[],
                    timing=TimingBreakdown(),
                )
            else:
                live.append(position)
        if live:
            lookup_start = time.perf_counter()
            total = len(self._index)
            # Mirror _probe's first iteration: over-fetch whenever a
            # same-table filter might starve the result list.
            fetch = k if all(exclude_list[p] is None for p in live) else k + 16
            batch = self._index.search_batch(
                np.stack([arrays[p] for p in live]),
                fetch,
                threshold=floor,
                excludes=[exclude_list[p] for p in live],
            )
            kept_lists: dict[int, list] = {}
            for position, raw in zip(live, batch):
                exclude = exclude_list[position]
                if exclude is None:
                    kept_lists[position] = raw[:k]
                    continue
                kept = self.drop_same_table(raw, exclude, k)
                if len(kept) < k and len(raw) >= fetch and fetch < total:
                    # The fixed over-fetch starved; rerun this query through
                    # the widening single-query probe (identical semantics).
                    kept = self._probe(arrays[position], k, floor, exclude)
                kept_lists[position] = kept
            share = (time.perf_counter() - lookup_start) / len(live)
            for position, kept in kept_lists.items():
                timing = TimingBreakdown()
                timing.lookup_s = share
                results[position] = DiscoveryResult(
                    query=exclude_list[position],
                    candidates=[JoinCandidate(ref, score) for ref, score in kept],
                    timing=timing,
                )
        return results  # type: ignore[return-value]

    def attach_connector(self, connector: WarehouseConnector) -> None:
        """Attach a live connector to a restored index (re-enables search()).

        The index itself is not rebuilt — only query-time column loading
        starts working again.
        """
        self._connector = connector

    @property
    def connector_or_none(self) -> WarehouseConnector | None:
        """The attached connector, or None (unlike :attr:`connector`, no raise)."""
        return self._connector

    def bump_generation(self) -> None:
        """Advance :attr:`index_generation` without changing index content.

        For logical mutations that evict nothing physical — e.g. dropping
        a table whose columns were all removed earlier — so generation-
        keyed caches and the join graph still observe the change.
        """
        self._index.touch()

    # -- introspection ---------------------------------------------------------------------

    def embedding_cache_stats(self) -> dict[str, object]:
        """Cache effectiveness snapshot across the embedding pipeline.

        Bundles the shared :class:`EmbeddingCache` (column-level, when
        attached) with the encoder's value-tokenization and token-vector
        caches — what the serving layer exposes on ``/stats``.
        """
        payload = self.encoder.cache_stats()
        if self.cache is not None:
            payload["embedding_cache"] = self.cache.stats()
        return payload

    def vector_of(self, ref: ColumnRef) -> np.ndarray:
        """Indexed unit embedding of ``ref`` (raises KeyError if not indexed).

        Served straight from the index's columnar arena (``float32``); the
        engine keeps no side copy of the embeddings.
        """
        return self._index.vector_of(ref)

    def similarity(self, left: ColumnRef, right: ColumnRef) -> float:
        """Cosine similarity between two indexed columns."""
        a, b = self._index.vector_of(left), self._index.vector_of(right)
        return float(a @ b)

    @property
    def indexed_count(self) -> int:
        """Number of columns in the index."""
        return len(self._index)

    @property
    def index_generation(self) -> int:
        """Monotonic counter of index content mutations.

        Moves on every add/remove/update/refresh/compaction, so any
        result computed under one value is stale under any other — the
        serving layer keys its query cache on it for implicit invalidation.
        """
        return self._index.mutation_generation

    @property
    def indexed_refs(self) -> tuple[ColumnRef, ...]:
        """Refs of every indexed column, in insertion order."""
        return tuple(self._index.keys())

    def is_column_indexed(self, ref: ColumnRef) -> bool:
        """True when ``ref`` currently has an indexed embedding (O(1))."""
        return ref in self._index

    def explain(self, query: ColumnRef, candidate: ColumnRef) -> dict[str, object]:
        """Why a candidate matched: similarity plus LSH collision odds."""
        cosine = self.similarity(query, candidate)
        explanation: dict[str, object] = {
            "query": str(query),
            "candidate": str(candidate),
            "cosine": round(cosine, 4),
            "above_threshold": cosine >= self.config.threshold,
        }
        if self.config.scoring == "hybrid":
            query_sketch = self._signatures.get(query)
            candidate_sketch = self._signatures.get(candidate)
            if query_sketch is not None and candidate_sketch is not None:
                weight = self.config.hybrid_semantic_weight
                containment = query_sketch[0].containment_estimate(
                    candidate_sketch[0], query_sketch[1], candidate_sketch[1]
                )
                blended = weight * cosine + (1.0 - weight) * containment
                explanation["scoring"] = "hybrid"
                explanation["containment"] = round(containment, 4)
                explanation["blended"] = round(blended, 4)
                explanation["above_floor"] = blended >= self.config.hybrid_floor
        if isinstance(self._index, SimHashLSHIndex):
            explanation["lsh_candidate_probability"] = round(
                self._index.expected_candidate_rate(cosine), 4
            )
        return explanation
