"""`DiscoveryService`: the session-based serving facade over WarpGate.

The library core (:class:`~repro.core.warpgate.WarpGate`) is a one-shot
pipeline — index a corpus, then query a frozen index.  The deployed system
the paper describes sits behind Sigma Workbooks and serves a *continuously
evolving* warehouse, so this facade adds what serving requires:

* **typed boundary** — :class:`SearchRequest` in,
  :class:`SearchResponse` / :class:`IndexStats` out,
  :class:`ServiceError` envelopes on failure;
* **incremental index mutation** — :meth:`add_table`, :meth:`drop_table`,
  and :meth:`refresh_column` update the live index in place, never
  re-indexing the corpus;
* **one on-disk format** — :meth:`save` checkpoints the index into a
  durable store directory and :meth:`load_durable`, the only loader,
  recovers it (see :mod:`repro.durability.store`);
* **batch search** — :meth:`search_many` amortizes query-column scans
  (duplicate query refs are embedded once) and lock traffic across a
  request batch, returning results identical to per-query :meth:`search`;
* **a thread-safe read path** — a writer-preferring RW lock lets any
  number of searches run concurrently while mutations are exclusive;
* **multi-hop discovery** — :meth:`find_paths` / :meth:`neighbors`
  query a lazily-maintained :class:`~repro.graph.joingraph.JoinGraph`
  whose edges are rebuilt per table off ``index_generation``, with
  path results cached under the same generation-keyed scheme;
* **a concurrent serving engine** — :meth:`search_coalesced` routes
  requests through a :class:`~repro.service.coalesce.QueryCoalescer`
  (concurrent in-flight searches execute as one batched index probe,
  with a fast-path bypass when traffic is sparse), and every probe
  consults a generation-keyed
  :class:`~repro.service.qcache.QueryResultCache` — index mutations
  invalidate implicitly because the index's monotonic
  ``mutation_generation`` is part of the cache key, so a stale result
  can never be served;
* **overload protection** — per-request deadlines (from
  ``SearchRequest.deadline_ms`` or the config's ``default_deadline_ms``)
  are enforced at every expensive boundary (before the warehouse scan,
  after embedding, before the probe) and surface as ``deadline_exceeded``
  (HTTP 504); the HTTP layer reports shed connections into a
  :class:`~repro._util.DegradationPolicy`, and sustained shedding
  caps path queries to one hop until traffic quiets — search answers
  are the same at every tier, and :attr:`readiness` reports
  ``/readyz`` state (not-ready at tier 2).

The facade is deliberately thin: every search still runs WarpGate's
embed → probe → rank pipeline, so library results and service results
never diverge.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro._util import DegradationPolicy
from repro.core.candidates import DiscoveryResult, JoinCandidate, TimingBreakdown
from repro.core.config import WarpGateConfig
from repro.core.profiles import EmbeddingCache
from repro.core.system import ELIGIBLE_TYPES, IndexReport
from repro.core.warpgate import WarpGate
from repro.errors import (
    ColumnNotFoundError,
    DatabaseNotFoundError,
    DeadlineExceededError,
    DiscoveryError,
    EmptyIndexError,
    NotIndexedError,
    ReproError,
    TableNotFoundError,
)
from repro.embedding.base import LRUCache
from repro.graph.joingraph import JoinGraph
from repro.graph.paths import JoinEdge, JoinPath, TableKey, parse_table
from repro.service.coalesce import QueryCoalescer
from repro.service.qcache import QueryResultCache
from repro.service.rwlock import ReadWriteLock
from repro.service.types import IndexStats, SearchRequest, SearchResponse, ServiceError
from repro.storage.schema import ColumnRef
from repro.storage.table import Table
from repro.warehouse.connector import WarehouseConnector
from repro.warehouse.sampling import Sampler

__all__ = ["DiscoveryService"]


class _TimedRequest:
    """A request paired with its absolute monotonic deadline (or ``None``).

    The coalescer's unit of work on the serving path: carrying the
    deadline alongside the request lets the coalescer enforce it at its
    own boundaries (urgent bypass, expired-in-queue) via ``deadline_of``
    without knowing anything about :class:`SearchRequest`.
    """

    __slots__ = ("request", "deadline")

    def __init__(self, request: SearchRequest, deadline: float | None) -> None:
        self.request = request
        self.deadline = deadline


class DiscoveryService:
    """Thread-safe, incrementally-updatable join-discovery service.

    Parameters
    ----------
    config:
        Forwarded to the wrapped :class:`WarpGate` (ignored when ``engine``
        is given).
    cache:
        Optional shared :class:`EmbeddingCache`, forwarded to the engine.
    engine:
        An existing :class:`WarpGate` to serve; mutually exclusive with
        ``config``.
    durable_store:
        An already-open :class:`~repro.durability.DurableIndexStore` to
        log mutations into (the :meth:`load_durable` path).  When absent
        and the engine's config names a ``durable_dir``, the service
        opens a store there itself.

    Usage::

        service = DiscoveryService()
        service.open(WarehouseConnector(warehouse))
        response = service.search("sales.orders.customer_name", k=5)
        service.add_table("sales", new_table)       # no re-index
        service.drop_table("sales", "orders_old")   # no re-index
    """

    def __init__(
        self,
        config: WarpGateConfig | None = None,
        *,
        cache: EmbeddingCache | None = None,
        engine: WarpGate | None = None,
        durable_store=None,
    ) -> None:
        if engine is not None and (config is not None or cache is not None):
            raise ValueError("pass either engine or config/cache, not both")
        self.engine = engine if engine is not None else WarpGate(config, cache=cache)
        effective = self.engine.config
        if effective.scoring == "hybrid":
            # Refuse rather than silently serve plain-cosine rankings.
            raise ValueError(
                'DiscoveryService does not apply scoring="hybrid" (its search '
                "paths skip the engine's scoring stage); call WarpGate.search "
                'directly or serve with scoring="cosine"'
            )
        # Durable mutation log: every acknowledged mutation appends one
        # fsync'd WAL record *before* the mutator returns (the ack
        # barrier); see repro.durability.store for the crash-safety story.
        self._store = durable_store
        if self._store is None and effective.durable_dir:
            from repro.durability import DurableIndexStore

            self._store = DurableIndexStore(
                effective.durable_dir,
                fsync=effective.durable_fsync,
                checkpoint_every=effective.checkpoint_every,
            )
        self._lock = ReadWriteLock()
        # Warehouse scans + embedding mutate connector/cache counters that
        # are not thread-safe, so every scan the service issues (query
        # embedding and mutation loading alike) is serialized here.  Index
        # probes stay concurrent under the RW lock's shared side.
        self._scan_lock = threading.Lock()
        # Traffic counters are written by concurrent readers (searches run
        # under the *shared* lock), so they get their own mutex.
        self._counter_lock = threading.Lock()
        self._searches = 0
        self._mutations = 0
        # The serving engine: a generation-keyed result cache consulted by
        # every probe, and a coalescer that batches concurrent requests
        # through _execute_coalesced.  Both are configured per engine.
        serving = self.engine.config
        self._qcache = (
            QueryResultCache(serving.query_cache_size)
            if serving.query_cache_size > 0
            else None
        )
        self._coalescer = (
            QueryCoalescer(
                self._execute_coalesced,
                # Fast path = the plain search path, verbatim: a request
                # hitting an idle coalescer costs exactly what search()
                # costs (the serve bench pins single-client p50 parity).
                execute_one=self._execute_one_timed,
                max_batch=serving.coalesce_max_batch,
                max_wait_us=serving.coalesce_max_wait_us,
                deadline_of=lambda timed: timed.deadline,
            )
            if serving.coalesce
            else None
        )
        # The join graph syncs lazily against the engine under its own
        # mutex (graph queries run beneath the *shared* read lock, so
        # they need a second serialization layer); mutators only touch
        # its dirty set, which has its own lock inside JoinGraph, so a
        # writer never acquires _graph_lock.  Path results are cached
        # under the index generation, mirroring the query cache.
        self._graph = JoinGraph(self.engine, edge_threshold=serving.threshold)
        self._graph_lock = threading.Lock()
        self._path_cache = (
            LRUCache(serving.query_cache_size)
            if serving.query_cache_size > 0
            else None
        )
        self._path_queries = 0
        # Overload protection: the HTTP layer reports every shed
        # connection here; sustained shedding caps path hops and, at
        # tier 2, reports not-ready; it recovers hysteretically once
        # traffic quiets.
        self._degradation = DegradationPolicy(
            shed_threshold=serving.degrade_shed_threshold,
            window_s=serving.degrade_window_s,
            recovery_s=serving.degrade_recovery_s,
        )
        self._deadline_misses = 0
        #: Set by :meth:`load_durable` — what recovery found on disk.
        self.recovery_report: dict | None = None

    def __repr__(self) -> str:
        return (
            f"DiscoveryService(backend={self.engine.config.search_backend!r}, "
            f"indexed_columns={self.engine.indexed_count})"
        )

    # -- error translation ---------------------------------------------------------

    @contextmanager
    def _boundary(self):
        """Translate library errors into typed :class:`ServiceError` envelopes."""
        try:
            yield
        except ServiceError:
            raise
        except DeadlineExceededError as error:
            with self._counter_lock:
                self._deadline_misses += 1
            raise ServiceError.deadline_exceeded(str(error)) from error
        except (DatabaseNotFoundError, TableNotFoundError, ColumnNotFoundError) as error:
            raise ServiceError.not_found(str(error)) from error
        except (NotIndexedError, EmptyIndexError) as error:
            raise ServiceError.not_indexed(str(error)) from error

    def _record_mutation(self) -> None:
        """Bump the mutation counter and refresh derived structures."""
        with self._counter_lock:
            self._mutations += 1
        self.engine.rebuild_index()

    def _record_searches(self, count: int) -> None:
        with self._counter_lock:
            self._searches += count

    # -- durability ---------------------------------------------------------------

    @staticmethod
    def _ref_order(refs) -> list[ColumnRef]:
        return sorted(refs, key=lambda ref: (ref.database, ref.table, ref.column))

    def _log_mutation(self, *, upserts=(), removes=()) -> None:
        """Durably record a mutation's effect before acknowledging it.

        Called by the mutators after the engine change but before the
        response is built: the WAL append (fsync'd under the default
        policy) is the ack barrier — a crash before it loses only the
        unacknowledged mutation, a crash after it loses nothing.  Refs
        are logged in sorted order so replay is deterministic.
        """
        if self._store is None:
            return
        self._store.ensure_base(self.engine)
        removes = self._ref_order(removes)
        if removes:
            self._store.log_remove(removes)
        upserts = self._ref_order(upserts)
        if upserts:
            vectors = np.stack([self.engine.vector_of(ref) for ref in upserts])
            self._store.log_upsert(upserts, vectors)
        self._store.maybe_checkpoint(self.engine)

    def checkpoint(self) -> dict | None:
        """Compact the durable store now (no-op without one).

        Returns the published manifest, or ``None`` when the service is
        in-memory only.
        """
        if self._store is None:
            return None
        with self._lock.write(), self._boundary():
            return self._store.checkpoint(self.engine)

    @property
    def durable_store(self):
        """The backing :class:`DurableIndexStore` (``None`` when in-memory)."""
        return self._store

    # -- lifecycle ----------------------------------------------------------------

    def open(
        self, connector: WarehouseConnector, *, sampler: Sampler | None = None
    ) -> IndexReport:
        """Bulk-index every eligible column reachable via ``connector``.

        One-shot: re-opening an already-indexed service would merge two
        corpora into one index (leaving stale, unresolvable columns
        searchable), so it raises — build a fresh service instead, or
        evolve the current corpus through :meth:`add_table` /
        :meth:`drop_table`.
        """
        with self._lock.write(), self._scan_lock, self._boundary():
            if self.engine.is_indexed:
                raise ServiceError.bad_request(
                    "service is already open; create a new DiscoveryService "
                    "to index a different corpus"
                )
            if self._store is not None and self._store.has_manifest:
                raise ServiceError.bad_request(
                    f"durable store at {self._store.directory} already holds "
                    "a checkpoint; recover it with DiscoveryService."
                    "load_durable instead of re-indexing over it"
                )
            report = self.engine.index_corpus(connector, sampler=sampler)
            self.engine.rebuild_index()
            if self._store is not None:
                # Establish the durable base: the bulk-indexed corpus as
                # segment + manifest, before any mutation is acknowledged.
                self._store.checkpoint(self.engine)
            return report

    def close(self) -> None:
        """Close the durable store's WAL handle, if any (idempotent)."""
        if self._store is not None:
            self._store.close()

    def attach_connector(self, connector: WarehouseConnector) -> None:
        """Attach a live connector (e.g. after recovering a saved store)."""
        with self._lock.write():
            self.engine.attach_connector(connector)
            # Edge confidences blend in MinHash signatures only when a
            # connector is available, so a late attach restarts the graph.
            self._graph.invalidate_all()

    def save(self, path: str | Path) -> Path:
        """Checkpoint the index into a durable store at ``path``.

        The store directory is the only on-disk index: one segment, a
        MANIFEST and an empty WAL (see :mod:`repro.durability.store`).
        Saving over an existing store replaces it through the
        checkpoint's atomic manifest publish; :meth:`load_durable` reads
        it back.  Raises :class:`DiscoveryError` if nothing is indexed.
        """
        from repro.durability import DurableIndexStore

        path = Path(path)
        if not self.engine.is_indexed:
            raise DiscoveryError("cannot save an unindexed WarpGate")
        if path.is_file():
            raise DiscoveryError(f"cannot save a store at {path}: it is a file")
        if self._store is not None and path.resolve() == self._store.directory.resolve():
            self.checkpoint()
            return path
        with self._lock.read(), DurableIndexStore(path) as store:
            store.checkpoint(self.engine)
        return path

    @classmethod
    def load_durable(
        cls,
        directory: str | Path,
        *,
        connector: WarehouseConnector | None = None,
    ) -> "DiscoveryService":
        """Recover a service from a durable store (crash or clean restart).

        Validates the manifest and segment checksums, discards a torn
        WAL tail, and replays acknowledged records — the rebuilt index
        holds exactly the last-acknowledged mutation set, and later
        mutations are logged into the same store.  Checksum failures
        raise the typed :mod:`repro.errors` durability errors, never a
        silent wrong answer.  The recovery report is exposed as
        :attr:`recovery_report`.
        """
        from repro.durability.store import (
            MANIFEST_NAME,
            DurableIndexStore,
            read_manifest_file,
        )

        directory = Path(directory)
        if directory.is_file():
            raise DiscoveryError(
                f"{directory} is a single-file index artifact; those no longer "
                "load — rebuild it as a store with `python -m repro index`"
            )
        # Recovery never creates a store: a mistyped path fails here,
        # before the store's constructor makes any directory.
        manifest = read_manifest_file(directory / MANIFEST_NAME)
        # The store may have been moved/copied since the manifest was
        # written; the directory actually recovered from is the truth.
        config = replace(
            WarpGateConfig.from_saved(manifest["config"]), durable_dir=str(directory)
        )
        store = DurableIndexStore(
            directory,
            fsync=config.durable_fsync,
            checkpoint_every=config.checkpoint_every,
        )
        _config, refs, vectors, report = store.recover()
        engine = WarpGate(config)
        if refs:
            # Replay rebuilds the arena's unit rows bitwise; SimHash
            # signatures rehash deterministically from them inside bulk_load.
            engine._index.bulk_load(refs, vectors, assume_unit=True)
            engine._indexed = True
        engine.rebuild_index()
        service = cls(engine=engine, durable_store=store)
        service.recovery_report = report
        if connector is not None:
            service.engine.attach_connector(connector)
        return service

    # -- incremental mutation ------------------------------------------------------

    def _table_refs(self, database: str, table_name: str) -> list[ColumnRef]:
        """Indexed refs belonging to one table."""
        return [
            ref
            for ref in self.engine.indexed_refs
            if ref.table_key == (database, table_name)
        ]

    def add_table(
        self, database: str, table: Table, *, sampler: Sampler | None = None
    ) -> IndexStats:
        """Register ``table`` and index its eligible columns incrementally.

        Replacing an existing table of the same name re-embeds its columns
        and evicts any indexed column the new table no longer carries.
        The full corpus is never re-indexed.
        """
        with self._lock.write(), self._scan_lock, self._boundary():
            warehouse = self.engine.connector.warehouse
            before = set(self._table_refs(database, table.name))
            warehouse.add_table(database, table)
            eligible = [
                ColumnRef(database, table.name, column.name)
                for column in table.columns
                if column.dtype in ELIGIBLE_TYPES
            ]
            # One batched scan + encode for the whole table — the same
            # chunked pipeline corpus indexing uses.
            kept = set(self.engine.add_columns(eligible, sampler=sampler))
            # Evict everything previously indexed for this table that did
            # not survive re-indexing: columns dropped by name, columns
            # whose dtype became ineligible, and columns that now embed to
            # a zero vector.
            for ref in before - kept:
                self.engine.remove_column(ref)
            self._log_mutation(upserts=kept, removes=before - kept)
            self._graph.invalidate_table((database, table.name))
            self._record_mutation()
            return self._stats_locked()

    def drop_table(self, database: str, table_name: str) -> IndexStats:
        """Evict a table's columns from the index and drop it from the catalog."""
        with self._lock.write(), self._scan_lock, self._boundary():
            warehouse = self.engine.connector.warehouse
            warehouse.drop_table(database, table_name)
            evicted = self._table_refs(database, table_name)
            for ref in evicted:
                self.engine.remove_column(ref)
            if not evicted:
                # Every column was already evicted (e.g. refreshed away
                # during churn), so removing the catalog entry changes no
                # index content — but generation-keyed consumers (query
                # cache, join graph) must still observe the drop.
                self.engine.bump_generation()
            self._log_mutation(removes=evicted)
            self._graph.invalidate_table((database, table_name))
            self._record_mutation()
            return self._stats_locked()

    def refresh_column(
        self, ref: ColumnRef | str, *, sampler: Sampler | None = None
    ) -> IndexStats:
        """Re-scan and re-embed one *indexed* column in place.

        Refreshing a ref that is not in the index is ``not_found`` — a
        refresh must never turn into an insert of a column the indexing
        eligibility rules excluded (use :meth:`add_table` to add data).
        """
        request_ref = ref if isinstance(ref, ColumnRef) else ColumnRef.parse(ref)
        with self._lock.write(), self._scan_lock, self._boundary():
            request_ref = self._resolve_ref(request_ref)
            if not self.engine.is_column_indexed(request_ref):
                raise ServiceError.not_found(f"{request_ref} is not indexed")
            self.engine.refresh_column(request_ref, sampler=sampler)
            if self.engine.is_column_indexed(request_ref):
                self._log_mutation(upserts=[request_ref])
            else:
                # The refresh evicted the column (it embeds to zero now).
                self._log_mutation(removes=[request_ref])
            self._graph.invalidate_table(request_ref.table_key)
            self._record_mutation()
            return self._stats_locked()

    # -- search -------------------------------------------------------------------

    @staticmethod
    def _coerce(request: SearchRequest | ColumnRef | str, k, threshold) -> SearchRequest:
        if isinstance(request, SearchRequest):
            return request
        return SearchRequest(query=request, k=k, threshold=threshold)

    def _resolve_ref(self, ref: ColumnRef) -> ColumnRef:
        """Qualify a 2-part ``table.column`` ref when it is unambiguous."""
        if ref.database:
            return ref
        connector = self.engine._connector
        names = connector.warehouse.database_names if connector is not None else ()
        if len(names) == 1:
            return ColumnRef(names[0], ref.table, ref.column)
        raise ServiceError.bad_request(
            f"query {ref} omits the database and the warehouse has "
            f"{len(names)} database(s); use db.table.column"
        )

    def _absolute_deadline(self, deadline_ms: int | None) -> float | None:
        """Translate a millisecond budget into an absolute monotonic deadline.

        ``None`` falls back to the config's ``default_deadline_ms``;
        a resolved budget of 0 means *no deadline*.
        """
        if deadline_ms is None:
            deadline_ms = self.engine.config.default_deadline_ms
        if not deadline_ms:
            return None
        return time.monotonic() + deadline_ms / 1e3

    def _deadline_for(self, request: SearchRequest) -> float | None:
        """This request's absolute deadline (its budget starts now)."""
        return self._absolute_deadline(request.deadline_ms)

    @staticmethod
    def _check_deadline(deadline: float | None) -> None:
        """Raise :class:`DeadlineExceededError` when ``deadline`` has passed.

        Called at every expensive boundary on the search path so a doomed
        request is answered instead of burning scan/embed/GEMM work it
        can no longer use.  Always called inside :meth:`_boundary`, which
        translates the raise into a 504 envelope and counts the miss.
        """
        if deadline is None:
            return
        overrun = time.monotonic() - deadline
        if overrun >= 0:
            raise DeadlineExceededError(overrun_s=overrun)

    def _effective_params(self, request: SearchRequest) -> tuple[int, float]:
        """Resolve ``(k, threshold)`` against the engine configuration.

        Cache keys and probe calls both use the resolved values, so a
        request relying on defaults and one naming them explicitly hit
        the same cache entry.
        """
        config = self.engine.config
        k = request.k if request.k is not None else config.default_k
        threshold = (
            request.threshold if request.threshold is not None else config.threshold
        )
        return k, threshold

    @staticmethod
    def _result_from_cached(cached, exclude: ColumnRef) -> DiscoveryResult:
        """Rebuild a result from cached ``(ref, score)`` pairs (fresh objects)."""
        return DiscoveryResult(
            query=exclude,
            candidates=[JoinCandidate(ref, score) for ref, score in cached],
            timing=TimingBreakdown(),
        )

    def _embed_then_probe(
        self,
        query: ColumnRef,
        request: SearchRequest,
        *,
        deadline: float | None = None,
    ) -> SearchResponse:
        """The locked embed → probe pipeline of the single-search path.

        Embedding scans the warehouse, so it runs under the scan mutex;
        the index probe runs under the shared side of the RW lock.  The
        two sections are sequential, never nested, so a writer holding
        write+scan cannot deadlock with a reader.  The probe itself is a
        one-entry :meth:`_probe_block_locked` block, so the query-cache
        protocol has exactly one implementation across the single,
        batch, and coalesced paths (and a lone miss takes the
        single-query probe, not a full-arena GEMM).
        """
        with self._scan_lock:
            self._check_deadline(deadline)
            vector, timing = self.engine.embed_query(query)
        if not np.any(vector):
            return SearchResponse.from_result(
                DiscoveryResult(query=query, candidates=[], timing=timing)
            )
        self._check_deadline(deadline)
        k, threshold = self._effective_params(request)
        responses: list[SearchResponse | None] = [None]
        with self._lock.read():
            self._probe_block_locked(k, threshold, [(0, vector, query, timing)], responses)
        return responses[0]  # type: ignore[return-value]

    def search(
        self,
        request: SearchRequest | ColumnRef | str,
        k: int | None = None,
        *,
        threshold: float | None = None,
    ) -> SearchResponse:
        """Top-k join discovery for one request.

        Runs the engine's exact search pipeline (embed → probe → rank);
        probes from concurrent callers share the read lock.
        """
        request = self._coerce(request, k, threshold)
        with self._boundary():
            response = self._embed_then_probe(
                self._resolve_ref(request.query),
                request,
                deadline=self._deadline_for(request),
            )
        self._record_searches(1)
        return response

    def _execute_one_timed(self, timed: _TimedRequest) -> SearchResponse:
        """The coalescer's fast path: plain search under a carried deadline.

        Identical to :meth:`search` except the deadline was fixed at
        submission time (``_TimedRequest``), so time spent reaching the
        fast path counts against the budget.
        """
        request = timed.request
        with self._boundary():
            self._check_deadline(timed.deadline)
            response = self._embed_then_probe(
                self._resolve_ref(request.query), request, deadline=timed.deadline
            )
        self._record_searches(1)
        return response

    def search_many(
        self,
        requests: list[SearchRequest | ColumnRef | str],
        *,
        deadline_ms: int | None = None,
    ) -> list[SearchResponse]:
        """Batch search: one lock round, one embedding per unique query,
        and one batched index probe per parameter group.

        Results are identical to issuing each request through
        :meth:`search` — the probe runs the engine's
        :meth:`~repro.core.warpgate.WarpGate.search_vectors`, which is the
        index's true batched path (one matrix product per query block, see
        ``ColumnarIndex.search_batch``) with per-query semantics preserved
        — but duplicate query refs pay the warehouse scan and embedding
        only once, and the block amortizes signature hashing, candidate
        generation, and BLAS dispatch.  Requests sharing ``(k, threshold)``
        are probed together; mixed-parameter batches fall into one block
        per distinct pair.

        The batch is all-or-nothing: if any request's query cannot be
        resolved or scanned, the whole call raises one
        :class:`ServiceError` and no partial results are returned —
        including deadlines: the batch shares its *tightest* deadline
        (``deadline_ms`` here, any request's own ``deadline_ms``, or the
        config default), and expiry fails the whole call with 504.
        """
        coerced = [self._coerce(request, None, None) for request in requests]
        responses: list[SearchResponse | None] = [None] * len(coerced)
        with self._boundary():
            bounds = [self._deadline_for(request) for request in coerced]
            if deadline_ms is not None:
                bounds.append(self._absolute_deadline(deadline_ms))
            bounds = [bound for bound in bounds if bound is not None]
            deadline = min(bounds) if bounds else None
            resolved = [self._resolve_ref(request.query) for request in coerced]
            embedded: dict[ColumnRef, tuple] = {}
            with self._scan_lock:
                for query in resolved:
                    self._check_deadline(deadline)
                    if query not in embedded:
                        embedded[query] = self.engine.embed_query(query)
            groups: dict[tuple, list[int]] = {}
            for position, request in enumerate(coerced):
                groups.setdefault(self._effective_params(request), []).append(position)
            with self._lock.read():
                self._check_deadline(deadline)
                for (k, threshold), positions in groups.items():
                    block = [
                        (
                            position,
                            embedded[resolved[position]][0],
                            resolved[position],
                            embedded[resolved[position]][1],
                        )
                        for position in positions
                    ]
                    self._probe_block_locked(k, threshold, block, responses)
        self._record_searches(len(coerced))
        return responses  # type: ignore[return-value]

    def _probe_block_locked(
        self, k: int, threshold: float, block: list, responses: list
    ) -> None:
        """Probe one same-``(k, threshold)`` block, cache-first, batched.

        ``block`` lists ``(position, vector, exclude, embed_timing)``;
        the caller holds the shared read lock.  Cache hits resolve
        without touching the index; misses probe together through the
        engine's batched :meth:`~repro.core.warpgate.WarpGate.search_vectors`
        and are stored under the generation read beneath this read lock
        (mutations need the exclusive side, so it cannot move mid-block).
        """
        misses: list[tuple] = []
        if self._qcache is not None:
            generation = self.engine.index_generation
            for position, vector, exclude, embed_timing in block:
                key = QueryResultCache.key(vector, k, threshold, exclude, generation)
                cached = self._qcache.get(key)
                if cached is not None:
                    result = self._result_from_cached(cached, exclude)
                    result.timing = embed_timing + result.timing
                    responses[position] = SearchResponse.from_result(result)
                else:
                    misses.append((position, vector, exclude, embed_timing, key))
        else:
            misses = [(*entry, None) for entry in block]
        if not misses:
            return
        if len(misses) == 1:
            # A lone miss takes the single-query probe (candidate gather,
            # not a full-arena GEMM) — this is what makes the coalescer's
            # fast path cost exactly what plain search() costs.
            results = [
                self.engine.search_vector(
                    misses[0][1], k, threshold=threshold, exclude=misses[0][2]
                )
            ]
        else:
            results = self.engine.search_vectors(
                [entry[1] for entry in misses],
                k,
                threshold=threshold,
                excludes=[entry[2] for entry in misses],
            )
        for (position, _vector, _exclude, embed_timing, key), result in zip(
            misses, results
        ):
            if key is not None:
                self._qcache.put(
                    key,
                    [(candidate.ref, candidate.score) for candidate in result.candidates],
                )
            result.timing = embed_timing + result.timing
            responses[position] = SearchResponse.from_result(result)

    # -- coalesced serving path ----------------------------------------------------

    def search_coalesced(
        self,
        request: SearchRequest | ColumnRef | str,
        k: int | None = None,
        *,
        threshold: float | None = None,
    ) -> SearchResponse:
        """Top-k search through the request coalescer.

        The serving engine's entry point (``POST /search`` routes here):
        requests in flight at the same moment execute as one batched
        index probe, while a lone request takes the coalescer's fast path
        — so sparse traffic pays no added latency and results are always
        identical to :meth:`search`.  With coalescing disabled in the
        config this *is* :meth:`search`.
        """
        request = self._coerce(request, k, threshold)
        if self._coalescer is None:
            return self.search(request)
        timed = _TimedRequest(request, self._deadline_for(request))
        with self._boundary():
            return self._coalescer.submit(timed)  # type: ignore[return-value]

    def _execute_coalesced(self, batch: list) -> list:
        """Batch executor behind the coalescer: one outcome per request.

        Unlike :meth:`search_many` (all-or-nothing by contract), coalesced
        requests are independent strangers sharing a batch, so failures
        are isolated: each position gets either a :class:`SearchResponse`
        or the :class:`ServiceError` that request alone would have raised
        — deadlines included: a position that expires while its
        batchmates embed is answered 504 right there and never joins the
        probe block.
        """
        count = len(batch)
        requests = [timed.request for timed in batch]
        deadlines = [timed.deadline for timed in batch]
        outcomes: list[object] = [None] * count
        resolved: list[ColumnRef | None] = [None] * count
        embedded: dict[ColumnRef, tuple] = {}
        with self._scan_lock:
            for position, request in enumerate(requests):
                try:
                    with self._boundary():
                        self._check_deadline(deadlines[position])
                        query = self._resolve_ref(request.query)
                        if query not in embedded:
                            embedded[query] = self.engine.embed_query(query)
                    resolved[position] = query
                except ServiceError as error:
                    outcomes[position] = error
                except ReproError as error:
                    outcomes[position] = ServiceError.bad_request(str(error))
        groups: dict[tuple, list[int]] = {}
        for position, request in enumerate(requests):
            if outcomes[position] is None:
                groups.setdefault(self._effective_params(request), []).append(position)
        succeeded = 0
        with self._lock.read():
            for (k_eff, threshold_eff), positions in groups.items():
                live: list[tuple] = []
                for position in positions:
                    try:
                        with self._boundary():
                            self._check_deadline(deadlines[position])
                    except ServiceError as error:
                        outcomes[position] = error
                        continue
                    query = resolved[position]
                    vector, embed_timing = embedded[query]
                    if not np.any(vector):
                        outcomes[position] = SearchResponse.from_result(
                            DiscoveryResult(
                                query=query, candidates=[], timing=embed_timing
                            )
                        )
                        succeeded += 1
                    else:
                        live.append((position, vector, query, embed_timing))
                if not live:
                    continue
                try:
                    with self._boundary():
                        self._probe_block_locked(
                            k_eff, threshold_eff, live, outcomes
                        )
                    succeeded += len(live)
                except ServiceError as error:
                    # The whole block failed the same way (e.g. the index
                    # emptied out underneath the batch).
                    for position, *_rest in live:
                        outcomes[position] = error
                except ReproError as error:
                    for position, *_rest in live:
                        outcomes[position] = ServiceError.bad_request(str(error))
        self._record_searches(succeeded)
        return outcomes

    # -- join-path graph -----------------------------------------------------------

    def _resolve_table(self, table: str | TableKey) -> TableKey:
        """Qualify a bare table name into ``(database, table)`` when unambiguous."""
        if isinstance(table, str):
            key = parse_table(table)
        else:
            key = (str(table[0]), str(table[1]))
        if key[0]:
            return key
        connector = self.engine.connector_or_none
        names = connector.warehouse.database_names if connector is not None else ()
        if len(names) == 1:
            return (names[0], key[1])
        raise ServiceError.bad_request(
            f"table {key[1]!r} omits the database and the warehouse has "
            f"{len(names)} database(s); use db.table"
        )

    def _graph_sync_locked(self) -> None:
        """Bring the graph current; caller holds the read and graph locks.

        Edge sweeps probe the index (safe under the shared lock); MinHash
        signature scans go through the connector, so the sync runs under
        the scan mutex like every other warehouse access.
        """
        with self._scan_lock:
            self._graph.ensure_current()

    def find_paths(
        self,
        src: str | TableKey,
        dst: str | TableKey,
        *,
        max_hops: int = 3,
        limit: int | None = 5,
        combiner: str = "product",
        deadline_ms: int | None = None,
    ) -> list[JoinPath]:
        """Ranked multi-hop join paths between two tables.

        Tables are named ``db.table`` (or bare when the warehouse has one
        database).  Results are cached under the index generation, so a
        repeated query is a dictionary hit until any mutation lands.
        ``deadline_ms`` bounds the query like the search path (expiry is
        a 504); while the service is degraded, path exploration is capped
        to one hop regardless of ``max_hops`` (the cap is part of the
        cache key, so degraded and full answers never mix).
        """
        with self._boundary():
            deadline = self._absolute_deadline(deadline_ms)
            src_key = self._resolve_table(src)
            dst_key = self._resolve_table(dst)
            cap = self._degradation.max_hops_cap()
            effective_hops = min(max_hops, cap) if cap is not None else max_hops
            with self._lock.read(), self._graph_lock:
                self._graph_sync_locked()
                self._check_deadline(deadline)
                paths: tuple[JoinPath, ...] | None = None
                key = None
                if self._path_cache is not None and isinstance(combiner, str):
                    key = (
                        src_key,
                        dst_key,
                        effective_hops,
                        limit,
                        combiner,
                        self.engine.index_generation,
                    )
                    paths = self._path_cache.get(key)
                if paths is None:
                    try:
                        paths = tuple(
                            self._graph.find_paths(
                                src_key,
                                dst_key,
                                max_hops=effective_hops,
                                limit=limit,
                                combiner=combiner,
                            )
                        )
                    except ValueError as error:
                        raise ServiceError.bad_request(str(error)) from error
                    if key is not None:
                        self._path_cache.put(key, paths)
        with self._counter_lock:
            self._path_queries += 1
        return list(paths)

    def neighbors(self, table: str | TableKey) -> list[tuple[TableKey, JoinEdge]]:
        """Directly joinable tables with the best edge to each, ranked."""
        with self._boundary():
            key = self._resolve_table(table)
            with self._lock.read(), self._graph_lock:
                self._graph_sync_locked()
                ranked = self._graph.neighbors(key)
        with self._counter_lock:
            self._path_queries += 1
        return ranked

    def graph_stats(self) -> dict[str, object]:
        """Join-graph counters after forcing a sync (``GET /graph/stats``)."""
        with self._boundary(), self._lock.read(), self._graph_lock:
            self._graph_sync_locked()
            payload = self._graph.stats()
        with self._counter_lock:
            payload["path_queries"] = self._path_queries
        if self._path_cache is not None:
            payload["path_cache"] = self._path_cache.stats()
        return payload

    def export_graph(self, fmt: str = "dot") -> str:
        """The synced graph as DOT or JSON text (CLI export path)."""
        from repro.graph.export import export_graph

        with self._boundary(), self._lock.read(), self._graph_lock:
            self._graph_sync_locked()
            try:
                return export_graph(self._graph, fmt)
            except ValueError as error:
                raise ServiceError.bad_request(str(error)) from error

    @property
    def join_graph(self) -> JoinGraph:
        """The underlying graph (synchronize access through this service)."""
        return self._graph

    # -- introspection -------------------------------------------------------------

    def _stats_locked(self) -> IndexStats:
        """Snapshot stats; caller must hold the lock (read or write)."""
        tables = databases = 0
        if self.engine._connector is not None:
            warehouse = self.engine._connector.warehouse
            tables = warehouse.table_count
            databases = len(warehouse.database_names)
        config = self.engine.config
        with self._counter_lock:
            searches, mutations = self._searches, self._mutations
            path_queries = self._path_queries
            deadline_misses = self._deadline_misses
        # Counters only — never forces a graph sync (stats must stay cheap).
        graph = self._graph.stats()
        graph["path_queries"] = path_queries
        caches = self.engine.embedding_cache_stats()
        if self._qcache is not None:
            caches["query_cache"] = self._qcache.stats()
        if self._coalescer is not None:
            caches["coalescer"] = self._coalescer.stats()
        return IndexStats(
            backend=config.search_backend,
            dim=config.dim,
            threshold=config.threshold,
            indexed_columns=self.engine.indexed_count,
            tables=tables,
            databases=databases,
            searches=searches,
            mutations=mutations,
            caches=caches,
            graph=graph,
            durability=self._store.stats() if self._store is not None else None,
            degradation={
                **self._degradation.snapshot(),
                "max_hops_cap": self._degradation.max_hops_cap(),
            },
            deadlines={
                "default_deadline_ms": config.default_deadline_ms,
                "misses": deadline_misses,
            },
        )

    def stats(self) -> IndexStats:
        """Current :class:`IndexStats` snapshot (shared read lock)."""
        with self._lock.read():
            return self._stats_locked()

    @property
    def is_indexed(self) -> bool:
        """True once the service holds a searchable index."""
        return self.engine.is_indexed

    @property
    def degradation(self) -> DegradationPolicy:
        """The overload degradation policy (the HTTP layer reports sheds here)."""
        return self._degradation

    @property
    def readiness(self) -> tuple[bool, str]:
        """``(ready, reason)`` for the ``/readyz`` probe.

        Liveness (``/healthz``) answers "is the process up"; readiness
        answers "should a balancer send traffic here" — ``False`` while
        the service has no searchable index yet (still recovering, or
        never opened) and while degraded-mode sits at its deepest tier,
        where adding traffic only deepens the overload.
        """
        if not self.engine.is_indexed:
            return False, "index not loaded"
        if self._degradation.tier() >= DegradationPolicy.TIER_CRITICAL:
            return False, "degraded: critical tier"
        return True, "ready"

    @property
    def coalescer(self) -> QueryCoalescer | None:
        """The request coalescer (``None`` when ``config.coalesce`` is off)."""
        return self._coalescer

    @property
    def query_cache(self) -> QueryResultCache | None:
        """The result cache (``None`` when ``config.query_cache_size`` is 0)."""
        return self._qcache
