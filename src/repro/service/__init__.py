"""Serving layer: the recommended entry point for applications.

:class:`DiscoveryService` wraps the library core
(:class:`~repro.core.warpgate.WarpGate`) with what a deployed
join-discovery system needs: a typed request/response boundary,
incremental index mutation (``add_table`` / ``drop_table`` /
``refresh_column`` without a full re-index), batch search, a
writer-preferring RW lock for safe concurrent access, and a
dependency-free JSON-over-HTTP server (``python -m repro serve``).
"""

from repro.service.coalesce import QueryCoalescer
from repro.service.discovery import DiscoveryService
from repro.service.qcache import QueryResultCache
from repro.service.rwlock import ReadWriteLock
from repro.service.server import DiscoveryHTTPServer, make_server, serve
from repro.service.types import IndexStats, SearchRequest, SearchResponse, ServiceError

__all__ = [
    "DiscoveryHTTPServer",
    "DiscoveryService",
    "IndexStats",
    "QueryCoalescer",
    "QueryResultCache",
    "ReadWriteLock",
    "SearchRequest",
    "SearchResponse",
    "ServiceError",
    "make_server",
    "serve",
]
