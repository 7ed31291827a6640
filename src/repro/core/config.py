"""WarpGate configuration.

One frozen dataclass gathers every knob the paper describes or that
DESIGN.md marks for ablation, with the paper's defaults: Web Table
Embeddings, SimHash LSH at similarity threshold 0.7, full-pass indexing
(``sample_size=None``) unless the sample-efficiency experiments say
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["WarpGateConfig"]

_SEARCH_BACKENDS = ("lsh", "exact", "pivot")
_SCORING_MODES = ("cosine", "hybrid")
_AGGREGATIONS = ("mean", "tfidf")
_SAMPLING_STRATEGIES = ("head", "uniform", "reservoir", "distinct")
# Fields a MANIFEST written before their removal still carries.
_RETIRED_KEYS = (
    "shard_workers",
    "worker_transport",
    "n_shards",
    "shard_placement",
    "quantize",
    "rerank_factor",
)
_FSYNC_POLICIES = ("always", "never")


@dataclass(frozen=True)
class WarpGateConfig:
    """All WarpGate knobs in one immutable value.

    Parameters
    ----------
    model_name:
        Embedding model from the registry: ``webtable`` (paper default),
        ``bertlike`` (§4.4 comparison), or ``hashing`` (syntactic ablation).
    dim:
        Embedding dimensionality.
    n_bits / n_bands:
        SimHash signature size and banding layout.
    threshold:
        Cosine similarity floor of the LSH index (paper: 0.7).
    aggregation:
        Column aggregation: ``mean`` or ``tfidf``.
    sampling_strategy / sample_size:
        How columns are sampled out of the warehouse during indexing and
        query embedding; ``sample_size=None`` scans full columns.
    search_backend:
        ``lsh`` (paper), ``exact`` (brute force), or ``pivot``
        (block-and-verify, §5.2.3).
    include_column_name / dedupe_values / numeric_profile_weight:
        Encoder options (see :class:`repro.embedding.ColumnEncoder`).
    default_k:
        Result-list size when the caller does not pass one.
    index_chunk_size:
        Columns loaded + encoded + appended per chunk during corpus
        indexing; bounds the build's working set so arbitrarily large
        corpora stream through constant memory.
    coalesce:
        Collect concurrent serving requests into micro-batches executed
        through the index's batched search path (see
        :class:`repro.service.coalesce.QueryCoalescer`).  A lone request
        bypasses the batching machinery entirely, so sparse traffic pays
        no added latency.
    coalesce_max_batch:
        Upper bound on requests coalesced into one batch.
    coalesce_max_wait_us:
        How long (microseconds) a coalescing leader waits for concurrent
        requests to join its batch before executing.  Only ever paid when
        at least two requests are already in flight.
    query_cache_size:
        Entries in the serving layer's generation-keyed query-result LRU
        (see :class:`repro.service.qcache.QueryResultCache`); 0 disables
        result caching.
    scoring:
        ``cosine`` (paper default: rank and filter on index cosine alone)
        or ``hybrid``: blend cosine with a MinHash *containment* estimate
        of the candidate's value overlap —
        ``hybrid_semantic_weight * cosine + (1 - weight) * containment``
        — and rank/filter on the blend.  Containment is the NextiaJD
        joinability proxy, so hybrid recovers high-containment pairs
        whose embeddings sit below the cosine threshold (dirty or
        mixed-vocabulary columns).  Ref-based :meth:`WarpGate.search`
        only: raw-vector searches have no value sets to sketch and stay
        cosine-ranked.
    hybrid_semantic_weight:
        Cosine's share of the hybrid blend, in ``(0, 1]`` (1.0 degenerates
        to cosine scores filtered at ``hybrid_floor``).
    hybrid_floor:
        Score floor applied to the *blended* score in hybrid mode (the
        cosine ``threshold`` is calibrated for pure-cosine scores and
        would discard exactly the moderate-cosine/high-containment pairs
        hybrid exists to keep).  Candidate generation probes the index
        down to the cosine that could still clear the floor under perfect
        containment: ``(hybrid_floor - (1 - weight)) / weight``.
    durable_dir:
        Root of the crash-safe durable store
        (:class:`repro.durability.DurableIndexStore`): WAL + checksummed
        segments + atomically-published manifest.  ``None`` (default)
        keeps the engine purely in-memory between explicit saves.
    durable_fsync:
        WAL fsync policy: ``always`` (every acknowledged mutation is
        fsync'd before the call returns) or ``never`` (OS-buffered; a
        crash may lose the tail — benchmarks and tests only).
    checkpoint_every:
        Auto-compact the WAL into a fresh segment after this many
        records (0 = only on explicit checkpoint).
    default_deadline_ms:
        Per-request time budget applied when a request names none (via
        ``SearchRequest.deadline_ms`` or the ``X-Deadline-Ms`` header).
        A request whose budget expires before its index probe runs is
        answered ``deadline_exceeded`` (HTTP 504) without touching the
        GEMM path.  0 (default) disables deadlines.
    degrade_shed_threshold:
        Admission-control sheds inside ``degrade_window_s`` that push the
        service into degraded tier 1 (path queries capped to one hop);
        twice the threshold reaches tier 2 (additionally reported
        not-ready by ``GET /readyz``).
    degrade_window_s:
        Sliding window (seconds) over which sheds are counted.
    degrade_recovery_s:
        Shed-free seconds required before the service steps *down* one
        degradation tier (hysteresis: recovery is deliberately slower
        than escalation so the service does not flap at the boundary).
    """

    model_name: str = "webtable"
    dim: int = 64
    n_bits: int = 128
    n_bands: int = 16
    threshold: float = 0.7
    aggregation: str = "mean"
    sampling_strategy: str = "head"
    sample_size: int | None = None
    search_backend: str = "lsh"
    include_column_name: bool = False
    dedupe_values: bool = False
    numeric_profile_weight: float = 0.3
    default_k: int = 10
    index_chunk_size: int = 512
    coalesce: bool = True
    coalesce_max_batch: int = 32
    coalesce_max_wait_us: int = 500
    query_cache_size: int = 4096
    scoring: str = "cosine"
    hybrid_semantic_weight: float = 0.6
    hybrid_floor: float = 0.35
    durable_dir: str | None = None
    durable_fsync: str = "always"
    checkpoint_every: int = 256
    default_deadline_ms: int = 0
    degrade_shed_threshold: int = 16
    degrade_window_s: float = 10.0
    degrade_recovery_s: float = 5.0

    def __post_init__(self) -> None:
        if self.search_backend not in _SEARCH_BACKENDS:
            raise ValueError(
                f"unknown search_backend {self.search_backend!r}; "
                f"choose from {_SEARCH_BACKENDS}"
            )
        if self.aggregation not in _AGGREGATIONS:
            raise ValueError(
                f"unknown aggregation {self.aggregation!r}; choose from {_AGGREGATIONS}"
            )
        if self.sampling_strategy not in _SAMPLING_STRATEGIES:
            raise ValueError(
                f"unknown sampling_strategy {self.sampling_strategy!r}; "
                f"choose from {_SAMPLING_STRATEGIES}"
            )
        if self.sample_size is not None and self.sample_size <= 0:
            raise ValueError(
                f"sample_size must be positive or None, got {self.sample_size}"
            )
        if not -1.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [-1, 1], got {self.threshold}")
        if self.default_k <= 0:
            raise ValueError(f"default_k must be positive, got {self.default_k}")
        if self.index_chunk_size <= 0:
            raise ValueError(
                f"index_chunk_size must be positive, got {self.index_chunk_size}"
            )
        if self.coalesce_max_batch < 1:
            raise ValueError(
                f"coalesce_max_batch must be >= 1, got {self.coalesce_max_batch}"
            )
        if self.coalesce_max_wait_us < 0:
            raise ValueError(
                f"coalesce_max_wait_us must be >= 0, got {self.coalesce_max_wait_us}"
            )
        if self.query_cache_size < 0:
            raise ValueError(
                f"query_cache_size must be >= 0, got {self.query_cache_size}"
            )
        if self.scoring not in _SCORING_MODES:
            raise ValueError(
                f"unknown scoring {self.scoring!r}; choose from {_SCORING_MODES}"
            )
        if not 0.0 < self.hybrid_semantic_weight <= 1.0:
            raise ValueError(
                "hybrid_semantic_weight must be in (0, 1], got "
                f"{self.hybrid_semantic_weight}"
            )
        if not -1.0 <= self.hybrid_floor <= 1.0:
            raise ValueError(
                f"hybrid_floor must be in [-1, 1], got {self.hybrid_floor}"
            )
        if self.durable_fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"unknown durable_fsync {self.durable_fsync!r}; "
                f"choose from {_FSYNC_POLICIES}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.default_deadline_ms < 0:
            raise ValueError(
                f"default_deadline_ms must be >= 0, got {self.default_deadline_ms}"
            )
        if self.degrade_shed_threshold < 1:
            raise ValueError(
                "degrade_shed_threshold must be >= 1, got "
                f"{self.degrade_shed_threshold}"
            )
        if self.degrade_window_s <= 0:
            raise ValueError(
                f"degrade_window_s must be positive, got {self.degrade_window_s}"
            )
        if self.degrade_recovery_s < 0:
            raise ValueError(
                f"degrade_recovery_s must be >= 0, got {self.degrade_recovery_s}"
            )

    @classmethod
    def from_saved(cls, saved: dict) -> "WarpGateConfig":
        """Rebuild the config stored in a durable store's MANIFEST.

        Today's constructor, minus the retired process-worker, shard
        and int8 keys that stores written before their removal still
        carry.  The payload was always saved flat in float32, so any such
        store restores into the one arena with exact scoring.
        """
        return cls(
            **{key: value for key, value in saved.items() if key not in _RETIRED_KEYS}
        )

    def with_sampling(self, sample_size: int | None, strategy: str | None = None) -> "WarpGateConfig":
        """Copy of this config with a different sampling setup."""
        return replace(
            self,
            sample_size=sample_size,
            sampling_strategy=strategy if strategy is not None else self.sampling_strategy,
        )

    def with_model(self, model_name: str) -> "WarpGateConfig":
        """Copy of this config with a different embedding model."""
        return replace(self, model_name=model_name)

    def with_backend(self, search_backend: str) -> "WarpGateConfig":
        """Copy of this config with a different search backend."""
        return replace(self, search_backend=search_backend)

    def with_threshold(self, threshold: float) -> "WarpGateConfig":
        """Copy of this config with a different LSH threshold."""
        return replace(self, threshold=threshold)

    def with_scoring(
        self,
        scoring: str,
        *,
        semantic_weight: float | None = None,
        floor: float | None = None,
    ) -> "WarpGateConfig":
        """Copy of this config with a different scoring mode."""
        return replace(
            self,
            scoring=scoring,
            hybrid_semantic_weight=(
                semantic_weight
                if semantic_weight is not None
                else self.hybrid_semantic_weight
            ),
            hybrid_floor=floor if floor is not None else self.hybrid_floor,
        )

    def with_durability(
        self,
        durable_dir: str | None,
        *,
        fsync: str | None = None,
        checkpoint_every: int | None = None,
    ) -> "WarpGateConfig":
        """Copy of this config with the durable store re-targeted."""
        return replace(
            self,
            durable_dir=durable_dir,
            durable_fsync=fsync if fsync is not None else self.durable_fsync,
            checkpoint_every=(
                checkpoint_every
                if checkpoint_every is not None
                else self.checkpoint_every
            ),
        )

    def with_serving(
        self,
        *,
        coalesce: bool | None = None,
        coalesce_max_batch: int | None = None,
        coalesce_max_wait_us: int | None = None,
        query_cache_size: int | None = None,
    ) -> "WarpGateConfig":
        """Copy of this config with different serving-engine knobs."""
        return replace(
            self,
            coalesce=coalesce if coalesce is not None else self.coalesce,
            coalesce_max_batch=(
                coalesce_max_batch
                if coalesce_max_batch is not None
                else self.coalesce_max_batch
            ),
            coalesce_max_wait_us=(
                coalesce_max_wait_us
                if coalesce_max_wait_us is not None
                else self.coalesce_max_wait_us
            ),
            query_cache_size=(
                query_cache_size
                if query_cache_size is not None
                else self.query_cache_size
            ),
        )

    def with_overload(
        self,
        *,
        default_deadline_ms: int | None = None,
        degrade_shed_threshold: int | None = None,
        degrade_window_s: float | None = None,
        degrade_recovery_s: float | None = None,
    ) -> "WarpGateConfig":
        """Copy of this config with different overload-protection knobs."""
        return replace(
            self,
            default_deadline_ms=(
                default_deadline_ms
                if default_deadline_ms is not None
                else self.default_deadline_ms
            ),
            degrade_shed_threshold=(
                degrade_shed_threshold
                if degrade_shed_threshold is not None
                else self.degrade_shed_threshold
            ),
            degrade_window_s=(
                degrade_window_s
                if degrade_window_s is not None
                else self.degrade_window_s
            ),
            degrade_recovery_s=(
                degrade_recovery_s
                if degrade_recovery_s is not None
                else self.degrade_recovery_s
            ),
        )
