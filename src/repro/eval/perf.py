"""Index perf suite: machine-readable timings tracked across PRs.

The paper's Table 2 argument is that LSH-backed lookup keeps per-query
response time flat as corpora grow.  This module measures exactly that on
the columnar index engine — build, single-query, and batched search at
several corpus sizes — and writes one JSON report (``BENCH_index.json`` at
the repository root by convention) so every PR leaves a comparable perf
baseline behind.  CI runs the ``fast`` profile as a smoke check; the
committed report comes from the ``full`` profile.

Since the paper notes the *embedding* step — not LSH probing — dominates
corpus build cost, the suite also carries an ``embed`` stage: sequential
per-column ``encode`` versus the chunked ``encode_batch`` pipeline over a
synthetic categorical-heavy column corpus (cell values repeat massively
across warehouse columns, which is what the shared value/token caches
exploit), reporting throughput, speedup, and cache hit rate per corpus
size.

The ``artifact`` stage tracks the format-3 mmap cold load against the
legacy compressed format-2 load.

The ``serve`` stage measures the *serving engine* end to end: N
concurrent HTTP clients drive a live server, comparing the
thread-per-request single-query baseline
(:class:`~repro.service.server.ThreadPerRequestHTTPServer`, one
connection per request) against the worker-pool engine (persistent
connections, request coalescing, generation-keyed query cache) — QPS,
p50/p99 latency, the coalescer's batch-size histogram, and the query
cache's steady-state hit rate.  A single-client probe pins the
coalescer's fast-path contract: p50 latency with coalescing on stays
within 10% of the uncoalesced path.

Stage timers are warm-up-excluded medians (``_timed_median``): every
timed arm first runs untimed ``warmup_runs`` times (JIT, lazy imports,
BLAS thread spin-up, cache fill), then reports the median of the timed
repeats; each stage row records its ``warmup_runs``.  Each run can
append a one-line summary (git SHA + timestamp + headline numbers) to
``BENCH_history.jsonl`` via :func:`append_history`, the cross-PR
trajectory file.

Run it via ``python -m repro bench`` or import :func:`run_perf_suite`.

The synthetic corpus is *not* isotropic Gaussian noise: warehouse column
embeddings concentrate on a low-dimensional manifold (columns share
vocabularies, units, and naming conventions) and contain near-duplicate
snapshot copies, which is what makes LSH buckets hot and candidate sets
dense.  :func:`synthetic_corpus` reproduces that shape — low-rank latent
structure plus snapshot clusters — so the numbers reflect the workload the
paper describes rather than a best case.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro._util import chunked, rng_for
from repro.index.lsh import SimHashLSHIndex

__all__ = [
    "ALL_STAGES",
    "BENCH_HISTORY_NAME",
    "BENCH_REPORT_NAME",
    "PROFILES",
    "append_history",
    "run_perf_suite",
    "synthetic_columns",
    "synthetic_corpus",
    "validate_report",
    "write_report",
]

BENCH_REPORT_NAME = "BENCH_index.json"
BENCH_HISTORY_NAME = "BENCH_history.jsonl"
_SCHEMA_VERSION = 11

#: Every stage the suite can run, in run order.  ``run_perf_suite``'s
#: ``stages`` parameter selects a subset (``python -m repro bench
#: --stages quality``); the report records which subset ran so
#: :func:`validate_report` only enforces contracts for stages present.
ALL_STAGES = (
    "results",
    "embed",
    "artifact",
    "serve",
    "overload",
    "graph",
    "durability",
    "quality",
)

#: Named suite profiles: corpus sizes and repeat counts.  ``full`` is the
#: committed baseline; ``fast`` keeps the CI smoke job in single-digit
#: seconds.  ``embed_sizes`` drives the embedding-throughput stage (the
#: sequential arm re-encodes every column per repeat, so it scales its own
#: sizes rather than riding the search-side ones); ``artifact_sizes``
#: drives the artifact-format stage at the scale where it matters.
PROFILES: dict[str, dict] = {
    "full": {
        "sizes": (1_000, 5_000, 10_000, 50_000),
        "repeats": 5,
        "embed_sizes": (2_000, 10_000),
        "embed_repeats": 3,
        "artifact_sizes": (50_000,),
        "stage_repeats": 3,
        "serve_sizes": (10_000,),
        "serve_clients": 16,
        "serve_requests_per_client": 64,
        "overload_sizes": (10_000,),
        "overload_requests_per_client": 64,
        "graph_sizes": (10_000,),
        "durability_sizes": (10_000,),
        "quality_profile": "full",
    },
    "fast": {
        "sizes": (500, 1_000, 2_000),
        "repeats": 2,
        "embed_sizes": (500, 1_000),
        "embed_repeats": 2,
        "artifact_sizes": (2_000,),
        "stage_repeats": 2,
        "serve_sizes": (2_000,),
        "serve_clients": 8,
        "serve_requests_per_client": 16,
        "overload_sizes": (2_000,),
        "overload_requests_per_client": 16,
        "graph_sizes": (2_000,),
        "durability_sizes": (2_000,),
        "quality_profile": "small",
    },
}

# Fields every per-size result row must carry (validate_report contract,
# enforced by the CI smoke job).
_RESULT_FIELDS = (
    "n_columns",
    "build_bulk_s",
    "incremental_add_ms",
    "remove_ms",
    "single_query_ms",
    "sequential_batch_ms",
    "batch_ms",
    "batch_per_query_ms",
    "batch_speedup",
    "candidate_fraction",
    "warmup_runs",
)

# Fields every embed-stage row must carry.
_EMBED_FIELDS = (
    "n_columns",
    "values_per_column",
    "sequential_s",
    "batched_s",
    "speedup",
    "sequential_cols_per_s",
    "batched_cols_per_s",
    "cache_hit_rate",
    "distinct_fraction",
    "warmup_runs",
)

# Fields every artifact-stage row must carry: format-3 mmap cold load vs
# the legacy compressed format-2 decompress-and-copy load.
_ARTIFACT_FIELDS = (
    "n_columns",
    "save_v2_s",
    "save_v3_s",
    "load_v2_s",
    "load_v3_s",
    "load_speedup",
    "artifact_v2_bytes",
    "artifact_v3_bytes",
    "warmup_runs",
)

# Fields every serve-stage row must carry: N concurrent HTTP clients vs a
# live server — thread-per-request single-query baseline against the
# worker-pool + coalescer + query-cache engine — plus the single-client
# fast-path latency contract.
_SERVE_FIELDS = (
    "n_columns",
    "clients",
    "requests",
    "qps_baseline",
    "qps_coalesce_only",
    "qps_engine",
    "coalesced_speedup",
    "p50_baseline_ms",
    "p99_baseline_ms",
    "p50_engine_ms",
    "p99_engine_ms",
    "single_p50_direct_ms",
    "single_p50_coalesced_ms",
    "single_latency_ratio",
    "cache_hit_rate",
    "mean_batch",
    "warmup_runs",
)

# Fields every overload-stage row must carry: admission control and
# graceful degradation under 2x and 4x offered load — goodput (accepted
# requests per second), shed rate and shed-response latency (fast-fail
# 503s must stay cheap), deadline-miss rate, accepted-request p99, and
# whether the server returned to full non-degraded service afterwards.
_OVERLOAD_FIELDS = (
    "n_columns",
    "workers",
    "queue_depth",
    "clients_1x",
    "p99_unsat_ms",
    "goodput_2x",
    "shed_rate_2x",
    "shed_p99_2x_ms",
    "deadline_miss_rate_2x",
    "goodput_4x",
    "shed_rate_4x",
    "shed_p99_4x_ms",
    "deadline_miss_rate_4x",
    "accepted_p99_4x_ms",
    "recovered",
    "warmup_runs",
)

# Fields every quality-stage row must carry: one (dataset, system, arm)
# cell of the join-quality matrix (see repro.eval.quality) — Figure-4
# precision/recall at every cutoff plus MAP/MRR and wall times.
_QUALITY_FIELDS = (
    "n_queries",
    "p_at_2",
    "p_at_3",
    "p_at_5",
    "p_at_10",
    "r_at_2",
    "r_at_3",
    "r_at_5",
    "r_at_10",
    "map",
    "mrr",
    "index_s",
    "eval_s",
)

# Fields every durability-stage row must carry: per-record WAL append
# cost (fsync'd vs OS-buffered) against the bare in-memory mutation it
# guards, plus checkpoint and full-recovery wall time at scale.
_DURABILITY_FIELDS = (
    "n_columns",
    "wal_records",
    "wal_append_ms",
    "wal_append_nofsync_ms",
    "inmem_update_ms",
    "wal_overhead_x",
    "checkpoint_s",
    "recovery_s",
    "recovered_columns",
    "warmup_runs",
)

# Fields every graph-stage row must carry: full join-graph rebuild vs the
# incremental one-table update path, plus multi-hop path-query latency.
_GRAPH_FIELDS = (
    "n_columns",
    "n_tables",
    "n_edges",
    "build_full_s",
    "incremental_update_s",
    "incremental_speedup",
    "path_query_ms",
    "path_query_unpruned_ms",
    "path_prune_speedup",
    "warmup_runs",
)


def synthetic_corpus(
    n: int,
    dim: int,
    *,
    n_domains: int = 3,
    spread: float = 0.62,
    snapshot_every: int = 8,
    seed_key: str = "perf-corpus",
) -> np.ndarray:
    """Deterministic column-embedding-shaped corpus: ``(n, dim)`` unit rows.

    Warehouse column embeddings are not isotropic noise: columns cluster
    by semantic domain (identifiers, names, amounts, locations — they
    share vocabularies and formats), and snapshots duplicate whole tables
    nearly verbatim.  Each row here is a unit draw around one of
    ``n_domains`` domain centers — within-domain cosines concentrate near
    ``1 - spread²`` (≈ 0.62 by default: hot LSH buckets, dense candidate
    sets, yet below the paper's 0.7 join threshold) — and every
    ``snapshot_every``-th row is a near-duplicate of an earlier row (a
    snapshot copy: the above-threshold joinable answer).  This is the
    regime the paper's Table 2 serves and the batched search path is
    built for.
    """
    rng = rng_for("perf-suite", seed_key, n, dim, n_domains)

    def unit_rows(matrix: np.ndarray) -> np.ndarray:
        return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)

    centers = unit_rows(rng.standard_normal((n_domains, dim)))
    assignment = rng.integers(0, n_domains, size=n)
    ambient = unit_rows(rng.standard_normal((n, dim)))
    matrix = (
        np.sqrt(max(0.0, 1.0 - spread**2)) * centers[assignment]
        + spread * ambient
    )
    # Snapshot copies: overwrite a slice of rows with jittered earlier rows.
    copies = np.arange(snapshot_every, n, snapshot_every)
    if copies.size:
        sources = rng.integers(0, copies, size=copies.size)
        matrix[copies] = matrix[sources] + 0.05 * rng.standard_normal(
            (copies.size, dim)
        )
    return unit_rows(matrix)


def synthetic_columns(
    n: int,
    *,
    values_per_column: int = 40,
    vocab_size: int = 600,
    numeric_every: int = 8,
    seed_key: str = "embed-corpus",
) -> list:
    """Deterministic warehouse-shaped columns for the embed stage.

    Warehouse serializations are dominated by categorical values drawn
    from shared vocabularies (names, codes, cities — the same strings
    recur across thousands of columns) plus low-range numeric columns
    (quantities, small codes) that repeat just as heavily.  That massive
    cross-column value repetition is precisely what the batched pipeline's
    value/token caches exploit, so the corpus reproduces it: every
    ``numeric_every``-th column is small-range integers, the rest sample a
    ``vocab_size``-entry multi-token string vocabulary.
    """
    from repro.storage.column import Column

    rng = rng_for("perf-suite", seed_key, n, values_per_column, vocab_size)
    vocabulary = [f"entity {k:05d} segment{k % 37}" for k in range(vocab_size)]
    columns = []
    for index in range(n):
        if numeric_every and index % numeric_every == 0:
            values = [int(v) for v in rng.integers(0, 250, size=values_per_column)]
            columns.append(Column(f"qty_{index}", values))
        else:
            picks = rng.integers(0, vocab_size, size=values_per_column)
            columns.append(
                Column(f"cat_{index}", [vocabulary[pick] for pick in picks])
            )
    return columns


def _bench_embed_one_size(
    n: int,
    *,
    dim: int,
    values_per_column: int,
    vocab_size: int,
    chunk_size: int,
    repeats: int,
) -> dict:
    """Sequential-vs-batched encode throughput at one corpus size.

    Both arms start cold (module n-gram caches cleared, fresh model and
    encoder) so the numbers describe a from-scratch corpus build; the
    cache hit rate comes from the timed batched run itself — it measures
    value repetition *within* one corpus build, not warm-over-warm replay.
    """
    from repro.embedding.encoder import ColumnEncoder, EncodeStats
    from repro.embedding.hashing import (
        HashingEmbeddingModel,
        _ngram_vector,
        hashed_token_vector,
    )

    columns = synthetic_columns(
        n, values_per_column=values_per_column, vocab_size=vocab_size
    )

    def cold_encoder() -> ColumnEncoder:
        hashed_token_vector.cache_clear()
        _ngram_vector.cache_clear()
        return ColumnEncoder(HashingEmbeddingModel(dim=dim))

    def sequential() -> None:
        encoder = cold_encoder()
        for column in columns:
            encoder.encode(column)

    stats = EncodeStats()

    def batched() -> None:
        stats.__init__()  # keep the stats of the (last) timed run
        encoder = cold_encoder()
        for chunk in chunked(columns, chunk_size):
            _matrix, chunk_stats = encoder.encode_batch(chunk)
            stats.merge(chunk_stats)

    sequential_s = _timed_median(repeats, sequential)
    batched_s = _timed_median(repeats, batched)
    return {
        "n_columns": n,
        "values_per_column": values_per_column,
        "vocab_size": vocab_size,
        "chunk_size": chunk_size,
        "sequential_s": round(sequential_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(sequential_s / batched_s, 2),
        "sequential_cols_per_s": round(n / sequential_s, 1),
        "batched_cols_per_s": round(n / batched_s, 1),
        "cache_hit_rate": round(stats.cache_hit_rate, 4),
        "distinct_fraction": round(
            stats.distinct_tokens / max(1, stats.token_occurrences), 4
        ),
        "warmup_runs": _WARMUP_RUNS,
    }


#: Untimed runs before every timed measurement: one pass absorbs the
#: one-shot costs a steady-state number must exclude (lazy imports, numpy
#: first-call dispatch, BLAS thread spin-up, bucket freezing, cache fill
#: where the arm is meant to be warm).  Recorded per stage row.
_WARMUP_RUNS = 1


def _timed_median(repeats: int, run, *, warmup: int = _WARMUP_RUNS) -> float:
    """Warm-up-excluded median wall time of ``run()``.

    Runs ``warmup`` untimed passes, then reports the median of
    ``repeats`` timed ones — the suite's standard noise filter.  The
    median (not best-of) keeps one lucky scheduler slice from defining a
    committed baseline, and the warm-up keeps first-call JIT and
    cache-fill effects out of *every* arm symmetrically.
    """
    for _ in range(max(0, warmup)):
        run()
    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return float(statistics.median(times))


def _bench_one_size(
    n: int,
    *,
    dim: int,
    n_bits: int,
    n_bands: int,
    threshold: float,
    batch_size: int,
    k: int,
    repeats: int,
) -> dict:
    # Queries are perturbed corpus columns (cos ≈ 0.98 to their source) —
    # the paper's workload queries the indexed corpus itself.
    corpus, queries = _corpus_and_queries(n, dim, batch_size)
    keys = list(range(n))

    def fresh_index() -> SimHashLSHIndex:
        return SimHashLSHIndex(
            dim, n_bits=n_bits, n_bands=n_bands, threshold=threshold
        )

    # Build (columnar bulk path), timed on fresh indexes.
    def build() -> None:
        index = fresh_index()
        index.bulk_load(keys, corpus)
        index.build()

    build_bulk_s = _timed_median(max(1, repeats // 2), build)

    index = fresh_index()
    index.bulk_load(keys, corpus)
    index.build()

    # Incremental mutation costs on the live index.
    extra = synthetic_corpus(64, dim, seed_key="perf-extra")
    add_start = time.perf_counter()
    for offset in range(extra.shape[0]):
        index.add(n + offset, extra[offset])
    incremental_add_ms = (time.perf_counter() - add_start) / extra.shape[0] * 1e3
    remove_start = time.perf_counter()
    for offset in range(extra.shape[0]):
        index.remove(n + offset)
    remove_ms = (time.perf_counter() - remove_start) / extra.shape[0] * 1e3
    index.build()

    def sequential() -> None:
        for position in range(batch_size):
            index.query(queries[position], k)

    def batched() -> None:
        index.search_batch(queries, k)

    sequential_batch_s = _timed_median(repeats, sequential)
    batch_s = _timed_median(repeats, batched)

    candidate_counts = []
    for position in range(batch_size):
        index.query(queries[position], k)
        candidate_counts.append(index.last_candidate_count)

    return {
        "n_columns": n,
        "build_bulk_s": round(build_bulk_s, 6),
        "incremental_add_ms": round(incremental_add_ms, 4),
        "remove_ms": round(remove_ms, 4),
        "single_query_ms": round(sequential_batch_s / batch_size * 1e3, 4),
        "sequential_batch_ms": round(sequential_batch_s * 1e3, 3),
        "batch_ms": round(batch_s * 1e3, 3),
        "batch_per_query_ms": round(batch_s / batch_size * 1e3, 4),
        "batch_speedup": round(sequential_batch_s / batch_s, 2),
        "candidate_fraction": round(
            float(np.mean(candidate_counts)) / max(1, len(index)), 4
        ),
        "warmup_runs": _WARMUP_RUNS,
    }


def _corpus_and_queries(
    n: int, dim: int, batch_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The suite's shared workload: corpus + jittered self-queries."""
    corpus = synthetic_corpus(n, dim)
    rng = rng_for("perf-suite", "queries", n, dim)
    picks = rng.integers(0, n, size=batch_size)
    jitter = rng.standard_normal((batch_size, dim))
    jitter /= np.linalg.norm(jitter, axis=1, keepdims=True)
    queries = np.sqrt(1.0 - 0.2**2) * corpus[picks] + 0.2 * jitter
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return corpus, queries


def _bench_artifact_one_size(n: int, *, dim: int, repeats: int) -> dict:
    """Format-3 (uncompressed, mmap-adopted) vs format-2 artifact round trip.

    ``load_v3_s`` times :func:`repro.core.persistence.load_index` on the
    current format — header parse + zero-copy arena adoption, no vector
    copy or decompression — against the legacy format-2 path
    (decompress + normalize + bulk-load).  Writes go to a temp dir.
    """
    import tempfile

    from repro.core.config import WarpGateConfig
    from repro.core.persistence import _save_legacy, load_index, save_index
    from repro.core.warpgate import WarpGate
    from repro.storage.schema import ColumnRef

    corpus, _queries = _corpus_and_queries(n, dim, 1)
    refs = [ColumnRef("bench", f"table_{i // 64}", f"col_{i % 64}") for i in range(n)]
    system = WarpGate(WarpGateConfig(model_name="hashing", dim=dim))
    system._index.bulk_load(refs, corpus)
    system._indexed = True

    with tempfile.TemporaryDirectory() as workdir:
        v2_path = Path(workdir) / "index_v2.npz"
        v3_path = Path(workdir) / "index_v3.npz"
        save_v2_s = _timed_median(repeats, lambda: _save_legacy(system, v2_path, version=2))
        save_v3_s = _timed_median(repeats, lambda: save_index(system, v3_path))
        load_v2_s = _timed_median(repeats, lambda: load_index(v2_path))
        load_v3_s = _timed_median(repeats, lambda: load_index(v3_path))
        v2_bytes = v2_path.stat().st_size
        v3_bytes = v3_path.stat().st_size
    return {
        "n_columns": n,
        "save_v2_s": round(save_v2_s, 4),
        "save_v3_s": round(save_v3_s, 4),
        "load_v2_s": round(load_v2_s, 4),
        "load_v3_s": round(load_v3_s, 4),
        "load_speedup": round(load_v2_s / load_v3_s, 1),
        "artifact_v2_bytes": v2_bytes,
        "artifact_v3_bytes": v3_bytes,
        "warmup_runs": _WARMUP_RUNS,
    }


def _bench_durability_one_size(n: int, *, dim: int, repeats: int) -> dict:
    """Durability stage: WAL append overhead and recovery wall time.

    The append arms time one acknowledged single-column mutation each:
    ``wal_append_ms`` is the full ack barrier (frame + write + fsync),
    ``wal_append_nofsync_ms`` drops the fsync (OS-buffered), and
    ``inmem_update_ms`` is the bare in-memory index update the WAL record
    guards — ``wal_overhead_x`` is what crash-durability multiplies onto
    a mutation.  ``recovery_s`` times :func:`load_index_durable` end to
    end (manifest parse, segment checksum + load, WAL replay, engine
    rebuild) on a store holding ``n`` columns plus a replayable WAL tail.
    """
    import tempfile

    from repro.core.config import WarpGateConfig
    from repro.core.persistence import load_index_durable
    from repro.core.warpgate import WarpGate
    from repro.durability.store import DurableIndexStore
    from repro.storage.schema import ColumnRef

    corpus, _queries = _corpus_and_queries(n, dim, 1)
    refs = [ColumnRef("bench", f"table_{i // 64}", f"col_{i % 64}") for i in range(n)]
    system = WarpGate(WarpGateConfig(model_name="hashing", dim=dim))
    system._index.bulk_load(refs, corpus)
    system._indexed = True

    wal_records = min(256, n)
    churn = refs[:wal_records]
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)

        def _append_run(store: DurableIndexStore) -> None:
            for position, ref in enumerate(churn):
                store.log_upsert([ref], corpus[position : position + 1])

        with DurableIndexStore(workdir / "wal-fsync", fsync="always") as store:
            append_s = _timed_median(repeats, lambda: _append_run(store))
        with DurableIndexStore(workdir / "wal-buffered", fsync="never") as store:
            buffered_s = _timed_median(repeats, lambda: _append_run(store))

        def _inmem_run() -> None:
            for position, ref in enumerate(churn):
                system._index.update(ref, corpus[position])

        inmem_s = _timed_median(repeats, _inmem_run)

        with DurableIndexStore(workdir / "ckpt", fsync="always") as store:
            checkpoint_s = _timed_median(repeats, lambda: store.checkpoint(system))

        # Recovery target: a checkpointed base plus a replayable WAL tail
        # (single-column upserts of existing refs, the serving churn shape).
        recover_dir = workdir / "recover"
        with DurableIndexStore(recover_dir, fsync="never") as store:
            store.checkpoint(system)
            _append_run(store)
        recovered: dict = {}

        def _recover_run() -> None:
            engine, store, report = load_index_durable(recover_dir)
            store.close()
            recovered.update(report)

        recovery_s = _timed_median(repeats, _recover_run)

    per_record = 1e3 / wal_records
    append_ms = append_s * per_record
    inmem_ms = inmem_s * per_record
    return {
        "n_columns": n,
        "wal_records": wal_records,
        "wal_append_ms": round(append_ms, 4),
        "wal_append_nofsync_ms": round(buffered_s * per_record, 4),
        "inmem_update_ms": round(inmem_ms, 4),
        "wal_overhead_x": round(append_ms / inmem_ms, 1) if inmem_ms else 0.0,
        "checkpoint_s": round(checkpoint_s, 4),
        "recovery_s": round(recovery_s, 4),
        "recovered_columns": int(recovered.get("recovered_columns", 0)),
        "warmup_runs": _WARMUP_RUNS,
    }


def _bench_graph_one_size(
    n: int, *, dim: int, edge_threshold: float, repeats: int
) -> dict:
    """Join-graph stage: full rebuild vs one-table incremental update.

    The corpus is grouped into 64-column tables (the bench ref
    convention).  The full arm invalidates everything and re-sweeps all
    tables; the incremental arm invalidates exactly one pre-added table
    of jittered near-duplicate columns, so each timed run pays one
    batched sweep plus edge surgery — the cost ``add_table`` churn
    actually incurs in serving.  ``path_query_ms`` is the mean
    ``find_paths`` latency over table pairs known to be connected.
    """
    from repro.core.config import WarpGateConfig
    from repro.core.warpgate import WarpGate
    from repro.graph.joingraph import JoinGraph
    from repro.storage.schema import ColumnRef

    corpus, _queries = _corpus_and_queries(n, dim, 1)
    refs = [ColumnRef("bench", f"table_{i // 64}", f"col_{i % 64}") for i in range(n)]
    system = WarpGate(WarpGateConfig(model_name="hashing", dim=dim))
    system._index.bulk_load(refs, corpus)
    system._indexed = True
    graph = JoinGraph(system, edge_threshold=edge_threshold)

    def full_rebuild() -> None:
        graph.invalidate_all()
        graph.ensure_current()

    build_full_s = _timed_median(repeats, full_rebuild)
    n_tables = len(graph.tables())
    n_edges = len(graph.edges())

    pairs = [edge.tables for edge in graph.edges()[:32]]

    def run_paths() -> None:
        for src, dst in pairs:
            graph.find_paths(src, dst, max_hops=3, limit=5)

    def run_paths_unpruned() -> None:
        # A callable combiner disables the best-possible-score prune in
        # enumerate_paths, so this arm measures the exhaustive DFS the
        # named "product" combiner used to pay.
        for src, dst in pairs:
            graph.find_paths(
                src,
                dst,
                max_hops=3,
                limit=5,
                combiner=lambda scores: math.prod(list(scores)),
            )

    path_query_ms = (
        _timed_median(repeats, run_paths) * 1e3 / len(pairs) if pairs else 0.0
    )
    path_query_unpruned_ms = (
        _timed_median(repeats, run_paths_unpruned) * 1e3 / len(pairs)
        if pairs
        else 0.0
    )

    # One extra table of jittered copies of existing rows joins the
    # corpus once (untimed); every timed run then re-syncs exactly it.
    rng = np.random.default_rng(1729)
    extra = corpus[rng.integers(0, n, size=64)] + 0.05 * rng.normal(
        size=(64, dim)
    ).astype(np.float32)
    extra = (extra / np.linalg.norm(extra, axis=1, keepdims=True)).astype(np.float32)
    extra_refs = [
        ColumnRef("bench", "table_incremental", f"col_{i}") for i in range(64)
    ]
    for ref, vector in zip(extra_refs, extra):
        system._index.add(ref, vector)
    graph.ensure_current()  # absorb the new table before timing starts

    def incremental_update() -> None:
        graph.invalidate_table(("bench", "table_incremental"))
        graph.ensure_current()

    incremental_update_s = _timed_median(repeats, incremental_update)
    return {
        "n_columns": n,
        "n_tables": n_tables,
        "n_edges": n_edges,
        "build_full_s": round(build_full_s, 4),
        "incremental_update_s": round(incremental_update_s, 6),
        "incremental_speedup": round(
            build_full_s / max(incremental_update_s, 1e-9), 1
        ),
        "path_query_ms": round(path_query_ms, 4),
        "path_query_unpruned_ms": round(path_query_unpruned_ms, 4),
        "path_prune_speedup": round(
            path_query_unpruned_ms / max(path_query_ms, 1e-9), 2
        ),
        "warmup_runs": _WARMUP_RUNS,
    }


def _serve_service(
    refs: list,
    corpus: np.ndarray,
    query_names: list[str],
    query_vectors: np.ndarray,
    *,
    dim: int,
    coalesce: bool,
    query_cache_size: int,
    overload: dict | None = None,
):
    """A DiscoveryService over a pre-built synthetic index.

    The index is bulk-loaded directly (no warehouse scan) and every
    benchmark query ref is pre-seeded into the engine's embedding cache,
    so serving requests exercise exactly the request → probe → respond
    path the stage measures — never CSV parsing or column encoding.
    ``overload`` optionally overrides the config's overload-protection
    knobs (``with_overload`` keywords) for the overload stage.
    """
    from repro.core.config import WarpGateConfig
    from repro.core.profiles import EmbeddingCache
    from repro.core.warpgate import WarpGate
    from repro.service.discovery import DiscoveryService
    from repro.storage.schema import ColumnRef

    cache = EmbeddingCache()
    config = WarpGateConfig(model_name="hashing", dim=dim).with_serving(
        coalesce=coalesce, query_cache_size=query_cache_size
    )
    if overload:
        config = config.with_overload(**overload)
    engine = WarpGate(config, cache=cache)
    engine._index.bulk_load(refs, corpus)
    engine._indexed = True
    engine.rebuild_index()
    for name, vector in zip(query_names, query_vectors):
        cache.put(ColumnRef.parse(name), vector)
    return DiscoveryService(engine=engine)


def _drive_clients(
    port: int,
    names: list[str],
    *,
    clients: int,
    k: int,
    threshold: float,
    keepalive: bool,
) -> tuple[float, list[float]]:
    """Fire ``names`` as ``POST /search`` bodies from ``clients`` threads.

    Returns ``(wall_s, per-request latencies)``.  With ``keepalive`` each
    client keeps one persistent connection; without it every request
    opens its own (the thread-per-request regime).  TCP_NODELAY is set
    client-side to keep Nagle/delayed-ACK stalls out of the numbers.
    """
    import http.client
    import socket

    def connect() -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    chunks = [names[position::clients] for position in range(clients)]
    latencies: list[list[float]] = [[] for _ in range(clients)]
    failures: list[str] = []

    def run_client(chunk: list[str], sink: list[float]) -> None:
        connection = connect() if keepalive else None
        headers = {"Content-Type": "application/json"}
        try:
            for name in chunk:
                body = json.dumps({"query": name, "k": k, "threshold": threshold})
                start = time.perf_counter()
                if keepalive:
                    connection.request("POST", "/search", body=body, headers=headers)
                    response = connection.getresponse()
                    payload = response.read()
                else:
                    one_shot = connect()
                    one_shot.request(
                        "POST",
                        "/search",
                        body=body,
                        headers={**headers, "Connection": "close"},
                    )
                    response = one_shot.getresponse()
                    payload = response.read()
                    one_shot.close()
                sink.append(time.perf_counter() - start)
                if response.status != 200:
                    failures.append(payload.decode("utf-8", "replace")[:200])
                    return
        finally:
            if connection is not None:
                connection.close()

    threads = [
        threading.Thread(target=run_client, args=(chunk, sink))
        for chunk, sink in zip(chunks, latencies)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if failures:
        raise RuntimeError(f"serve bench request failed: {failures[0]}")
    return wall, [entry for sink in latencies for entry in sink]


def _percentile_ms(latencies: list[float], fraction: float) -> float:
    ordered = sorted(latencies)
    position = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[position] * 1e3


def _bench_serve_one_size(
    n: int,
    *,
    dim: int,
    k: int,
    clients: int,
    requests_per_client: int,
    threshold: float = 0.5,
    query_pool: int = 256,
) -> dict:
    """Concurrent HTTP serving: thread-per-request baseline vs the engine.

    Both arms serve the identical 10k-style synthetic index and the
    identical query stream (a ``query_pool``-wide pool cycled by N
    concurrent clients — BI traffic repeats its probes, which is what the
    query cache exists for):

    * **baseline** — :class:`~repro.service.server.ThreadPerRequestHTTPServer`,
      one connection (= one spawned thread) per request, coalescing and
      query cache off: every request is an isolated single-vector query,
      the pre-engine architecture.
    * **coalesce-only** — the worker-pool server with persistent
      connections and coalescing but the query cache off, so the report
      decomposes how much of the engine win is batching vs result reuse.
    * **engine** — the worker-pool server with persistent connections,
      request coalescing, and the generation-keyed query cache at their
      config defaults; ``coalesced_speedup`` is this arm over baseline.

    A warm-up pass per arm (excluded from timing) absorbs connection
    ramp-up and fills the query cache to steady state;
    ``cache_hit_rate`` is computed over the timed window only.  The
    single-client probe then pins the fast-path contract: coalescing on
    vs off (cache off in both) over one keep-alive connection —
    ``single_latency_ratio`` is the p50 ratio, and must stay ~1.
    """
    from repro.service.server import ThreadPerRequestHTTPServer, make_server
    from repro.storage.schema import ColumnRef

    corpus, query_vectors = _corpus_and_queries(n, dim, query_pool)
    refs = [ColumnRef("bench", f"table_{i // 64}", f"col_{i % 64}") for i in range(n)]
    query_names = [f"bench.queries.q{position}" for position in range(query_pool)]
    total = clients * requests_per_client
    stream = [query_names[position % query_pool] for position in range(total)]
    warm_stream = stream[: max(clients * 8, query_pool)]

    def build(coalesce: bool, cache_size: int):
        return _serve_service(
            refs,
            corpus,
            query_names,
            query_vectors,
            dim=dim,
            coalesce=coalesce,
            query_cache_size=cache_size,
        )

    drive = dict(clients=clients, k=k, threshold=threshold)

    # Arm 1: thread-per-request single-query baseline.
    baseline = build(False, 0)
    server = ThreadPerRequestHTTPServer(("127.0.0.1", 0), baseline)
    accept = threading.Thread(target=server.serve_forever, daemon=True)
    accept.start()
    try:
        port = server.server_address[1]
        _drive_clients(port, warm_stream, keepalive=False, **drive)
        baseline_wall, baseline_lat = _drive_clients(
            port, stream, keepalive=False, **drive
        )
    finally:
        server.shutdown()
        server.server_close()
        accept.join(timeout=10)

    # Arm 2: pool + keep-alive + coalescer, query cache off — isolates
    # what coalescing alone buys before result reuse enters the picture.
    coalesce_only = build(True, 0)
    with make_server(coalesce_only, port=0, workers=clients + 2) as server:
        port = server.server_address[1]
        _drive_clients(port, warm_stream, keepalive=True, **drive)
        coalesce_wall, _lat = _drive_clients(port, stream, keepalive=True, **drive)

    # Arm 3: the full serving engine (pool + keep-alive + coalescer + cache).
    engine = build(True, 4096)
    with make_server(engine, port=0, workers=clients + 2) as server:
        port = server.server_address[1]
        _drive_clients(port, warm_stream, keepalive=True, **drive)
        cache_stats = engine.query_cache.stats()
        warm_hits, warm_misses = cache_stats["hits"], cache_stats["misses"]
        engine_wall, engine_lat = _drive_clients(port, stream, keepalive=True, **drive)
    cache_stats = engine.query_cache.stats()
    timed_hits = cache_stats["hits"] - warm_hits
    timed_misses = cache_stats["misses"] - warm_misses
    coalescer_stats = engine.coalescer.stats()

    # Single-client fast-path probe: coalescing must not tax sparse
    # traffic (cache off in both arms so the comparison isolates it).
    single_stream = [query_names[position % query_pool] for position in range(256)]
    singles: dict[bool, list[float]] = {}
    for coalesce in (False, True):
        service = build(coalesce, 0)
        with make_server(service, port=0, workers=2) as server:
            port = server.server_address[1]
            _drive_clients(
                port, single_stream[:32], clients=1, k=k,
                threshold=threshold, keepalive=True,
            )
            _wall, singles[coalesce] = _drive_clients(
                port, single_stream, clients=1, k=k,
                threshold=threshold, keepalive=True,
            )
    single_p50_direct = _percentile_ms(singles[False], 0.5)
    single_p50_coalesced = _percentile_ms(singles[True], 0.5)

    return {
        "n_columns": n,
        "clients": clients,
        "requests": total,
        "query_pool": query_pool,
        "qps_baseline": round(total / baseline_wall, 1),
        "qps_coalesce_only": round(total / coalesce_wall, 1),
        "qps_engine": round(total / engine_wall, 1),
        "coalesced_speedup": round(baseline_wall / engine_wall, 2),
        "p50_baseline_ms": round(_percentile_ms(baseline_lat, 0.5), 3),
        "p99_baseline_ms": round(_percentile_ms(baseline_lat, 0.99), 3),
        "p50_engine_ms": round(_percentile_ms(engine_lat, 0.5), 3),
        "p99_engine_ms": round(_percentile_ms(engine_lat, 0.99), 3),
        "single_p50_direct_ms": round(single_p50_direct, 3),
        "single_p50_coalesced_ms": round(single_p50_coalesced, 3),
        "single_latency_ratio": round(single_p50_coalesced / single_p50_direct, 3),
        "cache_hit_rate": round(
            timed_hits / max(1, timed_hits + timed_misses), 4
        ),
        "mean_batch": coalescer_stats["mean_batch"],
        "batch_histogram": coalescer_stats["batch_histogram"],
        "warmup_runs": _WARMUP_RUNS,
    }


def _drive_overload_clients(
    port: int,
    names: list[str],
    *,
    clients: int,
    k: int,
    threshold: float,
    deadline_ms: int | None,
) -> tuple[float, list[tuple[int, float]]]:
    """Fire ``names`` connection-per-request and keep *every* outcome.

    Unlike :func:`_drive_clients` (which treats any non-200 as a broken
    bench), the overload stage drives the server past saturation on
    purpose: 503 (shed) and 504 (deadline) are the behaviors under
    measurement.  Connection-per-request traffic is what exercises
    admission control — keep-alive clients would pin workers and never
    touch the queue.  Returns ``(wall_s, [(status, latency_s), ...])``;
    a connection torn down before a response parses is recorded as
    status 0 (it neither counts as goodput nor as a clean shed).
    """
    import http.client
    import socket

    chunks = [names[position::clients] for position in range(clients)]
    outcomes: list[list[tuple[int, float]]] = [[] for _ in range(clients)]

    def run_client(chunk: list[str], sink: list[tuple[int, float]]) -> None:
        headers = {"Content-Type": "application/json", "Connection": "close"}
        for name in chunk:
            body = {"query": name, "k": k, "threshold": threshold}
            if deadline_ms is not None:
                body["deadline_ms"] = deadline_ms
            encoded = json.dumps(body)
            start = time.perf_counter()
            try:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=30
                )
                connection.connect()
                connection.sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                connection.request(
                    "POST", "/search", body=encoded, headers=headers
                )
                response = connection.getresponse()
                response.read()
                status = response.status
                connection.close()
            except (OSError, http.client.HTTPException):
                status = 0
            sink.append((status, time.perf_counter() - start))

    threads = [
        threading.Thread(target=run_client, args=(chunk, sink))
        for chunk, sink in zip(chunks, outcomes)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return wall, [entry for sink in outcomes for entry in sink]


def _bench_overload_one_size(
    n: int,
    *,
    dim: int,
    k: int,
    requests_per_client: int,
    threshold: float = 0.5,
    query_pool: int = 256,
    workers: int = 4,
    queue_depth: int = 4,
    deadline_ms: int = 10_000,
) -> dict:
    """Overload behavior at 1x, 2x, and 4x offered load.

    One deliberately small serving engine (``workers`` pool threads, an
    admission queue of ``queue_depth``) faces connection-per-request
    client fleets at the worker count (unsaturated), twice it, and four
    times it.  The stage records what the overload-protection layer
    promises: goodput holds up, excess load is shed with fast 503s (shed
    p99 is the latency of *rejection*, which must stay far below the
    latency of service), deadline misses stay rare with a sane budget,
    and after the burst the server walks back to full non-degraded
    service (``recovered``).
    """
    from repro.service.server import make_server
    from repro.storage.schema import ColumnRef

    corpus, query_vectors = _corpus_and_queries(n, dim, query_pool)
    refs = [ColumnRef("bench", f"table_{i // 64}", f"col_{i % 64}") for i in range(n)]
    query_names = [f"bench.queries.q{position}" for position in range(query_pool)]
    # Aggressive degradation thresholds + a short recovery window keep the
    # post-burst recovery check inside bench-scale wall time.
    service = _serve_service(
        refs,
        corpus,
        query_names,
        query_vectors,
        dim=dim,
        coalesce=True,
        query_cache_size=4096,
        overload={
            "degrade_shed_threshold": max(4, queue_depth),
            "degrade_window_s": 5.0,
            "degrade_recovery_s": 0.4,
        },
    )
    clients_1x = workers

    def offered(multiple: int) -> list[str]:
        total = clients_1x * multiple * requests_per_client
        return [query_names[position % query_pool] for position in range(total)]

    def pass_at(multiple: int) -> tuple[float, list[tuple[int, float]]]:
        return _drive_overload_clients(
            port,
            offered(multiple),
            clients=clients_1x * multiple,
            k=k,
            threshold=threshold,
            deadline_ms=deadline_ms,
        )

    def split(outcomes: list[tuple[int, float]]):
        accepted = [latency for status, latency in outcomes if status == 200]
        shed = [latency for status, latency in outcomes if status == 503]
        missed = [latency for status, latency in outcomes if status == 504]
        return accepted, shed, missed

    with make_server(
        service,
        port=0,
        workers=workers,
        admission_queue_depth=queue_depth,
    ) as server:
        port = server.server_address[1]
        # Warm-up at 1x (connection ramp, cache fill), then the measured
        # unsaturated pass that sets the accepted-latency yardstick.
        _drive_overload_clients(
            port,
            offered(1)[: clients_1x * 8],
            clients=clients_1x,
            k=k,
            threshold=threshold,
            deadline_ms=deadline_ms,
        )
        _wall, unsat = pass_at(1)
        unsat_accepted, _, _ = split(unsat)
        p99_unsat = _percentile_ms(unsat_accepted, 0.99) if unsat_accepted else 0.0
        results: dict[int, dict] = {}
        for multiple in (2, 4):
            wall, outcomes = pass_at(multiple)
            accepted, shed, missed = split(outcomes)
            results[multiple] = {
                "goodput": round(len(accepted) / wall, 1),
                "shed_rate": round(len(shed) / max(1, len(outcomes)), 4),
                "shed_p99_ms": round(
                    _percentile_ms(shed, 0.99) if shed else 0.0, 3
                ),
                "deadline_miss_rate": round(
                    len(missed) / max(1, len(outcomes)), 4
                ),
                "accepted_p99_ms": round(
                    _percentile_ms(accepted, 0.99) if accepted else 0.0, 3
                ),
            }
        # Recovery: the degradation tier must walk back to normal and a
        # fresh request must be admitted and served.
        deadline = time.monotonic() + 15.0
        while (
            service.degradation.tier() != 0 and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        _wall, after = _drive_overload_clients(
            port,
            offered(1)[:clients_1x],
            clients=clients_1x,
            k=k,
            threshold=threshold,
            deadline_ms=deadline_ms,
        )
        recovered = (
            service.degradation.tier() == 0
            and all(status == 200 for status, _latency in after)
        )
        admission = server.admission_stats()

    return {
        "n_columns": n,
        "workers": workers,
        "queue_depth": queue_depth,
        "clients_1x": clients_1x,
        "requests_per_client": requests_per_client,
        "deadline_ms": deadline_ms,
        "p99_unsat_ms": round(p99_unsat, 3),
        "goodput_2x": results[2]["goodput"],
        "shed_rate_2x": results[2]["shed_rate"],
        "shed_p99_2x_ms": results[2]["shed_p99_ms"],
        "deadline_miss_rate_2x": results[2]["deadline_miss_rate"],
        "goodput_4x": results[4]["goodput"],
        "shed_rate_4x": results[4]["shed_rate"],
        "shed_p99_4x_ms": results[4]["shed_p99_ms"],
        "deadline_miss_rate_4x": results[4]["deadline_miss_rate"],
        "accepted_p99_4x_ms": results[4]["accepted_p99_ms"],
        "sheds_total": admission["sheds"],
        "recovered": 1.0 if recovered else 0.0,
        "warmup_runs": _WARMUP_RUNS,
    }


def run_perf_suite(
    *,
    profile: str = "full",
    sizes: tuple[int, ...] | None = None,
    dim: int = 256,
    n_bits: int = 128,
    n_bands: int = 16,
    threshold: float = 0.7,
    batch_size: int = 64,
    k: int = 10,
    repeats: int | None = None,
    embed_sizes: tuple[int, ...] | None = None,
    embed_repeats: int | None = None,
    embed_dim: int = 64,
    embed_values_per_column: int = 40,
    embed_vocab_size: int = 600,
    embed_chunk_size: int = 512,
    artifact_sizes: tuple[int, ...] | None = None,
    stage_repeats: int | None = None,
    serve_sizes: tuple[int, ...] | None = None,
    serve_clients: int | None = None,
    serve_requests_per_client: int | None = None,
    overload_sizes: tuple[int, ...] | None = None,
    overload_requests_per_client: int | None = None,
    graph_sizes: tuple[int, ...] | None = None,
    graph_edge_threshold: float = 0.7,
    durability_sizes: tuple[int, ...] | None = None,
    quality_profile: str | None = None,
    stages: tuple[str, ...] | None = None,
    progress=None,
) -> dict:
    """Time index search paths and embedding throughput per corpus size.

    Returns the report dict: ``results`` rows follow ``_RESULT_FIELDS``
    (search side), ``embed`` rows follow ``_EMBED_FIELDS`` (sequential vs
    batched encode), ``artifact`` rows ``_ARTIFACT_FIELDS``
    (format-2 vs format-3 cold loads), ``serve`` rows ``_SERVE_FIELDS``
    (concurrent HTTP clients against the live serving engine vs the
    thread-per-request baseline), ``graph`` rows ``_GRAPH_FIELDS`` (full
    join-graph rebuild vs incremental one-table update, plus multi-hop
    path-query latency), and ``quality`` rows ``_QUALITY_FIELDS`` (the
    join-quality matrix of :mod:`repro.eval.quality` — precision/recall@k,
    MAP, MRR per (dataset, system, arm) cell).  ``stages`` selects a
    subset of :data:`ALL_STAGES` (default: all); skipped stages appear as
    empty lists and the report's ``stages`` key records what ran.  Pass
    ``progress`` (a callable taking one string) for per-size console
    feedback.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    spec = PROFILES[profile]
    if stages is None:
        stages = ALL_STAGES
    else:
        stages = tuple(stages)
        unknown = sorted(set(stages) - set(ALL_STAGES))
        if unknown:
            raise ValueError(
                f"unknown stage(s) {unknown}; choose from {list(ALL_STAGES)}"
            )
        stages = tuple(stage for stage in ALL_STAGES if stage in stages)
    sizes = tuple(sizes) if sizes is not None else spec["sizes"]
    repeats = repeats if repeats is not None else spec["repeats"]
    embed_sizes = (
        tuple(embed_sizes) if embed_sizes is not None else spec["embed_sizes"]
    )
    embed_repeats = (
        embed_repeats if embed_repeats is not None else spec.get("embed_repeats", 2)
    )
    artifact_sizes = (
        tuple(artifact_sizes)
        if artifact_sizes is not None
        else spec["artifact_sizes"]
    )
    stage_repeats = (
        stage_repeats if stage_repeats is not None else spec.get("stage_repeats", 2)
    )
    serve_sizes = (
        tuple(serve_sizes) if serve_sizes is not None else spec["serve_sizes"]
    )
    serve_clients = (
        serve_clients if serve_clients is not None else spec.get("serve_clients", 16)
    )
    serve_requests_per_client = (
        serve_requests_per_client
        if serve_requests_per_client is not None
        else spec.get("serve_requests_per_client", 64)
    )
    overload_sizes = (
        tuple(overload_sizes)
        if overload_sizes is not None
        else spec.get("overload_sizes", (10_000,))
    )
    overload_requests_per_client = (
        overload_requests_per_client
        if overload_requests_per_client is not None
        else spec.get("overload_requests_per_client", 64)
    )
    graph_sizes = (
        tuple(graph_sizes) if graph_sizes is not None else spec["graph_sizes"]
    )
    durability_sizes = (
        tuple(durability_sizes)
        if durability_sizes is not None
        else spec["durability_sizes"]
    )
    quality_profile = (
        quality_profile
        if quality_profile is not None
        else spec.get("quality_profile", "small")
    )
    results = []
    for n in sizes if "results" in stages else ():
        if progress is not None:
            progress(f"benchmarking {n} columns ...")
        results.append(
            _bench_one_size(
                n,
                dim=dim,
                n_bits=n_bits,
                n_bands=n_bands,
                threshold=threshold,
                batch_size=batch_size,
                k=k,
                repeats=repeats,
            )
        )
    embed_results = []
    for n in embed_sizes if "embed" in stages else ():
        if progress is not None:
            progress(f"benchmarking embed throughput at {n} columns ...")
        embed_results.append(
            _bench_embed_one_size(
                n,
                dim=embed_dim,
                values_per_column=embed_values_per_column,
                vocab_size=embed_vocab_size,
                chunk_size=embed_chunk_size,
                repeats=embed_repeats,
            )
        )
    artifact_results = []
    for n in artifact_sizes if "artifact" in stages else ():
        if progress is not None:
            progress(f"benchmarking artifact formats at {n} columns ...")
        artifact_results.append(
            _bench_artifact_one_size(n, dim=dim, repeats=stage_repeats)
        )
    serve_results = []
    for n in serve_sizes if "serve" in stages else ():
        if progress is not None:
            progress(
                f"benchmarking HTTP serving with {serve_clients} clients "
                f"at {n} columns ..."
            )
        serve_results.append(
            _bench_serve_one_size(
                n,
                dim=dim,
                k=k,
                clients=serve_clients,
                requests_per_client=serve_requests_per_client,
            )
        )
    overload_results = []
    for n in overload_sizes if "overload" in stages else ():
        if progress is not None:
            progress(
                f"benchmarking overload shedding at {n} columns "
                f"(2x and 4x offered load) ..."
            )
        overload_results.append(
            _bench_overload_one_size(
                n,
                dim=dim,
                k=k,
                requests_per_client=overload_requests_per_client,
            )
        )
    graph_results = []
    for n in graph_sizes if "graph" in stages else ():
        if progress is not None:
            progress(f"benchmarking join graph at {n} columns ...")
        graph_results.append(
            _bench_graph_one_size(
                n,
                dim=dim,
                edge_threshold=graph_edge_threshold,
                repeats=stage_repeats,
            )
        )
    durability_results = []
    for n in durability_sizes if "durability" in stages else ():
        if progress is not None:
            progress(f"benchmarking durable store at {n} columns ...")
        durability_results.append(
            _bench_durability_one_size(n, dim=dim, repeats=stage_repeats)
        )
    quality_results = []
    if "quality" in stages:
        from repro.eval.quality import run_quality_suite

        if progress is not None:
            progress(
                f"benchmarking join quality ({quality_profile} matrix) ..."
            )
        quality_results = run_quality_suite(
            profile=quality_profile, progress=progress
        )["rows"]
    return {
        "schema_version": _SCHEMA_VERSION,
        "suite": "index-perf",
        "profile": profile,
        "stages": list(stages),
        "config": {
            "backend": "lsh",
            "dim": dim,
            "n_bits": n_bits,
            "n_bands": n_bands,
            "threshold": threshold,
            "batch_size": batch_size,
            "k": k,
            "repeats": repeats,
            "embed": {
                "dim": embed_dim,
                "values_per_column": embed_values_per_column,
                "vocab_size": embed_vocab_size,
                "chunk_size": embed_chunk_size,
                "model": "hashing",
            },
            "serve": {
                "clients": serve_clients,
                "requests_per_client": serve_requests_per_client,
                "threshold": 0.5,
                "query_pool": 256,
            },
            "overload": {
                "workers": 4,
                "queue_depth": 4,
                "requests_per_client": overload_requests_per_client,
                "deadline_ms": 10_000,
                "load_multiples": [2, 4],
            },
            "graph": {
                "edge_threshold": graph_edge_threshold,
                "columns_per_table": 64,
            },
            "durability": {
                "fsync": "always",
                "wal_record_cap": 256,
            },
            "quality": {
                "profile": quality_profile,
                "ks": [2, 3, 5, 10],
                "backend": "exact",
            },
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 1,
            # The CPUs this process may actually run on (sched affinity):
            # a pinned bench (``--pin-cpus``) records its pin set here so
            # a committed baseline is honest about the hardware it saw.
            "cpu_affinity": (
                sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else None
            ),
        },
        "results": results,
        "embed": embed_results,
        "artifact": artifact_results,
        "serve": serve_results,
        "overload": overload_results,
        "graph": graph_results,
        "durability": durability_results,
        "quality": quality_results,
    }


def write_report(report: dict, path: str | Path) -> Path:
    """Write the suite report as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def validate_report(payload: dict) -> list[str]:
    """Schema check for a perf report; returns a list of problems (empty = ok).

    The CI smoke job runs this against the regenerated report so a broken
    bench (missing sizes, malformed rows, non-numeric timings) fails the
    build instead of silently shipping an empty trajectory.
    """
    problems: list[str] = []
    if payload.get("suite") != "index-perf":
        problems.append("suite != 'index-perf'")
    if not isinstance(payload.get("config"), dict):
        problems.append("missing config object")
    ran = payload.get("stages")
    if ran is None:
        ran = list(ALL_STAGES)  # pre-v6 reports carried every stage
    elif not isinstance(ran, list) or not ran:
        problems.append("stages must be a non-empty list")
        return problems
    if "results" in ran:
        results = payload.get("results")
        if not isinstance(results, list) or len(results) < 3:
            problems.append("results must list >= 3 corpus sizes")
            return problems
        for row in results:
            for field in _RESULT_FIELDS:
                value = row.get(field)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"result {row.get('n_columns')}: bad {field!r}")
    if "embed" in ran:
        embed = payload.get("embed")
        if not isinstance(embed, list) or not embed:
            problems.append("embed must list >= 1 corpus sizes")
            return problems
        for row in embed:
            for field in _EMBED_FIELDS:
                value = row.get(field)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"embed {row.get('n_columns')}: bad {field!r}")
    for stage, fields in (
        ("artifact", _ARTIFACT_FIELDS),
        ("serve", _SERVE_FIELDS),
        ("overload", _OVERLOAD_FIELDS),
        ("graph", _GRAPH_FIELDS),
        ("durability", _DURABILITY_FIELDS),
    ):
        if stage not in ran:
            continue
        rows = payload.get(stage)
        if not isinstance(rows, list) or not rows:
            problems.append(f"{stage} must list >= 1 corpus sizes")
            continue
        for row in rows:
            for field in fields:
                value = row.get(field)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"{stage} {row.get('n_columns')}: bad {field!r}")
    if "quality" in ran:
        rows = payload.get("quality")
        if not isinstance(rows, list) or not rows:
            problems.append("quality must list >= 1 matrix cells")
        else:
            for row in rows:
                cell = (
                    f"{row.get('dataset_key')}/{row.get('system')}"
                    f"[{row.get('arm')}]"
                )
                for field in ("dataset_key", "system", "arm"):
                    if not isinstance(row.get(field), str):
                        problems.append(f"quality {cell}: bad {field!r}")
                for field in _QUALITY_FIELDS:
                    value = row.get(field)
                    if not isinstance(value, (int, float)) or isinstance(value, bool):
                        problems.append(f"quality {cell}: bad {field!r}")
    return problems


def _git_sha(start: Path) -> str:
    """Short commit SHA of the repo containing ``start`` (or 'unknown').

    A ``-dirty`` suffix marks a working tree with uncommitted changes —
    the normal state when regenerating the baseline just before the
    commit that will ship it.
    """
    cwd = start if start.is_dir() else start.parent

    def run(*args: str):
        return subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=10
        )

    try:
        completed = run("rev-parse", "--short", "HEAD")
        sha = completed.stdout.strip()
        if completed.returncode != 0 or not sha:
            return "unknown"
        status = run("status", "--porcelain")
        if status.returncode == 0 and status.stdout.strip():
            sha += "-dirty"
        return sha
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def append_history(report: dict, path: str | Path) -> Path:
    """Append one bench-trajectory line (git SHA + timestamp + headlines).

    ``BENCH_history.jsonl`` is the cross-PR perf trajectory: one JSON line
    per committed bench run, so regressions are visible as a time series
    without replaying ``git log -p BENCH_index.json``.  Headline metrics
    come from the largest corpus size of each stage.
    """
    path = Path(path)
    largest = report["results"][-1] if report.get("results") else {}
    artifact = report["artifact"][-1] if report.get("artifact") else {}
    embed = report["embed"][-1] if report.get("embed") else {}
    serve = report["serve"][-1] if report.get("serve") else {}
    overload = report["overload"][-1] if report.get("overload") else {}
    graph = report["graph"][-1] if report.get("graph") else {}
    durability = report["durability"][-1] if report.get("durability") else {}
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git_sha(path.resolve()),
        "profile": report.get("profile"),
        "schema_version": report.get("schema_version"),
        "cpus": report.get("environment", {}).get("cpus"),
        "n_columns_max": largest.get("n_columns"),
        "batch_speedup": largest.get("batch_speedup"),
        "batch_per_query_ms": largest.get("batch_per_query_ms"),
        "embed_speedup": embed.get("speedup"),
        "artifact_load_speedup": artifact.get("load_speedup"),
        "serve_qps_engine": serve.get("qps_engine"),
        "serve_coalesced_speedup": serve.get("coalesced_speedup"),
        "serve_cache_hit_rate": serve.get("cache_hit_rate"),
        "overload_goodput_4x": overload.get("goodput_4x"),
        "overload_shed_rate_4x": overload.get("shed_rate_4x"),
        "overload_shed_p99_ms": overload.get("shed_p99_4x_ms"),
        "overload_deadline_miss_rate": overload.get("deadline_miss_rate_4x"),
        "graph_edges": graph.get("n_edges"),
        "graph_incremental_speedup": graph.get("incremental_speedup"),
        "graph_path_query_ms": graph.get("path_query_ms"),
        "durability_wal_overhead_x": durability.get("wal_overhead_x"),
        "durability_recovery_s": durability.get("recovery_s"),
    }
    from repro.eval.quality import quality_headline

    entry.update(quality_headline(report.get("quality") or []))
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")
    return path
