"""Typed request/response surface of the :class:`DiscoveryService`.

Everything a serving boundary needs: an immutable :class:`SearchRequest`,
a :class:`SearchResponse` mirroring the library's
:class:`~repro.core.candidates.DiscoveryResult`, an :class:`IndexStats`
snapshot, and the :class:`ServiceError` envelope the HTTP layer returns on
failure.  Every type round-trips through plain dicts (``to_dict`` /
``from_dict``) so the JSON-over-HTTP server never touches internal
objects directly.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.core.candidates import DiscoveryResult, JoinCandidate, TimingBreakdown
from repro.errors import DiscoveryError
from repro.storage.schema import ColumnRef

__all__ = ["IndexStats", "SearchRequest", "SearchResponse", "ServiceError"]


class ServiceError(DiscoveryError):
    """Service-boundary failure with a stable machine-readable code.

    ``code`` is one of ``bad_request`` / ``not_found`` / ``not_indexed`` /
    ``timeout`` / ``payload_too_large`` / ``internal`` / ``overloaded`` /
    ``deadline_exceeded``; ``status`` is the matching HTTP status.
    ``to_dict`` renders the wire envelope
    ``{"error": {"code": ..., "message": ...}}``.  ``retry_after_s`` is
    non-``None`` only for retryable overload rejections, where the HTTP
    layer surfaces it as a ``Retry-After`` header.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        status: int = 400,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.status = status
        self.retry_after_s = retry_after_s

    @classmethod
    def bad_request(cls, message: str) -> "ServiceError":
        """Malformed or invalid request payload (HTTP 400)."""
        return cls("bad_request", message, status=400)

    @classmethod
    def not_found(cls, message: str) -> "ServiceError":
        """Unknown database, table, column, or route (HTTP 404)."""
        return cls("not_found", message, status=404)

    @classmethod
    def not_indexed(cls, message: str) -> "ServiceError":
        """The service has no searchable index yet (HTTP 409)."""
        return cls("not_indexed", message, status=409)

    @classmethod
    def timeout(cls, message: str) -> "ServiceError":
        """The client fed the request too slowly (HTTP 408)."""
        return cls("timeout", message, status=408)

    @classmethod
    def payload_too_large(cls, message: str) -> "ServiceError":
        """Declared request body exceeds the server's cap (HTTP 413)."""
        return cls("payload_too_large", message, status=413)

    @classmethod
    def internal(cls, message: str) -> "ServiceError":
        """Unexpected server-side failure (HTTP 500)."""
        return cls("internal", message, status=500)

    @classmethod
    def overloaded(
        cls, message: str, *, retry_after_s: float = 1.0
    ) -> "ServiceError":
        """Admission control shed this request (HTTP 503, retryable)."""
        return cls("overloaded", message, status=503, retry_after_s=retry_after_s)

    @classmethod
    def deadline_exceeded(cls, message: str) -> "ServiceError":
        """The request's deadline expired before completion (HTTP 504)."""
        return cls("deadline_exceeded", message, status=504)

    def to_dict(self) -> dict[str, object]:
        """The wire envelope."""
        return {"error": {"code": self.code, "message": str(self)}}


def _parse_ref(value: object) -> ColumnRef:
    """Coerce a wire value (string or ref) into a :class:`ColumnRef`."""
    if isinstance(value, ColumnRef):
        return value
    if isinstance(value, str) and value:
        try:
            return ColumnRef.parse(value)
        except Exception as error:
            raise ServiceError.bad_request(
                f"cannot parse query ref {value!r}: {error}"
            ) from error
    raise ServiceError.bad_request(
        f"query must be a 'db.table.column' string or ColumnRef, got {value!r}"
    )


@dataclass(frozen=True)
class SearchRequest:
    """One top-k join-discovery request.

    ``query`` accepts a :class:`ColumnRef` or a ``"db.table.column"``
    string, normalized at construction (``"table.column"`` also works when
    the serving warehouse holds exactly one database); ``k`` and
    ``threshold`` fall back to the service configuration when ``None``.
    ``deadline_ms`` is this request's total time budget — when it expires
    before the probe runs, the service answers ``deadline_exceeded``
    (HTTP 504) instead of doing doomed work; ``None`` falls back to the
    service configuration's ``default_deadline_ms`` (0 = no deadline).
    """

    query: ColumnRef
    k: int | None = None
    threshold: float | None = None
    deadline_ms: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "query", _parse_ref(self.query))
        if self.k is not None and self.k <= 0:
            raise ServiceError.bad_request(f"k must be positive, got {self.k}")
        if self.threshold is not None and not -1.0 <= self.threshold <= 1.0:
            raise ServiceError.bad_request(
                f"threshold must be in [-1, 1], got {self.threshold}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ServiceError.bad_request(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SearchRequest":
        """Build a request from a decoded JSON body."""
        if not isinstance(payload, Mapping):
            raise ServiceError.bad_request("request body must be a JSON object")
        unknown = set(payload) - {"query", "k", "threshold", "deadline_ms"}
        if unknown:
            raise ServiceError.bad_request(
                f"unknown request fields: {sorted(unknown)}"
            )
        k = payload.get("k")
        if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
            raise ServiceError.bad_request(f"k must be an integer, got {k!r}")
        threshold = payload.get("threshold")
        if threshold is not None and (
            isinstance(threshold, bool) or not isinstance(threshold, (int, float))
        ):
            raise ServiceError.bad_request(
                f"threshold must be a number, got {threshold!r}"
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool) or not isinstance(deadline_ms, int)
        ):
            raise ServiceError.bad_request(
                f"deadline_ms must be an integer, got {deadline_ms!r}"
            )
        return cls(
            query=payload.get("query"),
            k=k,
            threshold=float(threshold) if threshold is not None else None,
            deadline_ms=deadline_ms,
        )

    def to_dict(self) -> dict[str, object]:
        """The wire form of this request."""
        payload: dict[str, object] = {"query": str(self.query)}
        if self.k is not None:
            payload["k"] = self.k
        if self.threshold is not None:
            payload["threshold"] = self.threshold
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload


@dataclass
class SearchResponse:
    """Ranked candidates for one request, with the timing breakdown."""

    query: ColumnRef | None
    candidates: list[JoinCandidate] = field(default_factory=list)
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)

    @classmethod
    def from_result(cls, result: DiscoveryResult) -> "SearchResponse":
        """Wrap a core :class:`DiscoveryResult` unchanged."""
        return cls(
            query=result.query, candidates=result.candidates, timing=result.timing
        )

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self) -> Iterator[JoinCandidate]:
        return iter(self.candidates)

    @property
    def refs(self) -> list[ColumnRef]:
        """Candidate refs in rank order."""
        return [candidate.ref for candidate in self.candidates]

    def describe(self) -> str:
        """Human-readable multi-line summary (same shape as the core result)."""
        return DiscoveryResult(
            query=self.query, candidates=self.candidates, timing=self.timing
        ).describe()

    def to_dict(self) -> dict[str, object]:
        """The wire form: query, ranked candidates, timing in seconds."""
        return {
            "query": str(self.query) if self.query is not None else None,
            "candidates": [
                {
                    "database": candidate.ref.database,
                    "table": candidate.ref.table,
                    "column": candidate.ref.column,
                    "ref": str(candidate.ref),
                    "score": candidate.score,
                }
                for candidate in self.candidates
            ],
            "timing": {
                "load_s": self.timing.load_s,
                "embed_s": self.timing.embed_s,
                "lookup_s": self.timing.lookup_s,
                "response_time_s": self.timing.response_time_s,
            },
        }


@dataclass(frozen=True)
class IndexStats:
    """A point-in-time snapshot of the service's index and traffic.

    ``caches`` reports embedding-pipeline cache effectiveness: the
    column-level :class:`~repro.core.profiles.EmbeddingCache` (when the
    engine has one) plus the encoder's value-tokenization and shared
    token-vector caches, each as ``{size, hits, misses, hit_rate}``.
    """

    backend: str
    dim: int
    threshold: float
    indexed_columns: int
    tables: int
    databases: int
    searches: int
    mutations: int
    caches: dict[str, object] = field(default_factory=dict)
    graph: dict[str, object] | None = None
    #: Durable-store counters (``None`` when the service is in-memory only).
    durability: dict[str, object] | None = None
    #: Degraded-mode snapshot (tier, recent sheds, path-hop cap) —
    #: ``None`` only for stats built by pre-degradation callers.
    degradation: dict[str, object] | None = None
    #: Deadline-expiry counters for the serving path.
    deadlines: dict[str, object] | None = None

    def to_dict(self) -> dict[str, object]:
        """The wire form of this snapshot."""
        payload: dict[str, object] = {
            "backend": self.backend,
            "dim": self.dim,
            "threshold": self.threshold,
            "indexed_columns": self.indexed_columns,
            "tables": self.tables,
            "databases": self.databases,
            "searches": self.searches,
            "mutations": self.mutations,
            "caches": dict(self.caches),
        }
        if self.graph is not None:
            payload["graph"] = dict(self.graph)
        if self.durability is not None:
            payload["durability"] = dict(self.durability)
        if self.degradation is not None:
            payload["degradation"] = dict(self.degradation)
        if self.deadlines is not None:
            payload["deadlines"] = dict(self.deadlines)
        return payload
