"""JSON-over-HTTP serving layer: ``python -m repro serve``.

A dependency-free (stdlib ``http.server``) front end for
:class:`~repro.service.discovery.DiscoveryService`, built for sustained
concurrent traffic rather than thread-per-request churn:

* a **fixed worker pool** accepts connections from a bounded hand-off
  queue — no thread is ever spawned per request, and load beyond the
  pool waits in the listen backlog instead of fork-bombing the process;
* connections are **persistent** (HTTP/1.1 keep-alive): a client issues
  any number of requests over one socket, with an idle timeout so a
  silent connection returns its worker to the pool;
* ``POST /search`` routes through the service's request coalescer
  (:meth:`DiscoveryService.search_coalesced`), so single-query requests
  from concurrent connections execute as batched index probes;
* ``shutdown()`` is **clean and complete**: the accept loop stops, every
  worker is unblocked and joined, and in-flight sockets close — no
  daemon-thread leaks across tests.  The server is a context manager
  (``with make_server(...) as server:``) that starts serving on enter
  and tears all of that down on exit.

Routes
------
``GET  /healthz``        liveness; lock-free, never blocked by writers
``GET  /readyz``         readiness; 503 until indexed / while critical-degraded
``GET  /stats``          :class:`IndexStats` snapshot (+ admission counters)
``GET  /graph/stats``    join-graph counters (forces a graph sync)
``POST /search``         one :class:`SearchRequest` body (coalesced)
``POST /paths``          ``{"src": "db.t", "dst": "db.u", "max_hops": 3}``
``POST /search/batch``   ``{"requests": [...]}``, amortized
``POST /index/add``      ``{"database": ..., "table": {"name": ..., "columns": [...]}}``
``POST /index/drop``     ``{"database": ..., "table": ...}``
``POST /index/refresh``  ``{"ref": "db.table.column"}``

Failures return the :class:`ServiceError` envelope
``{"error": {"code": ..., "message": ...}}`` with a matching HTTP status.

Overload protection (see DESIGN.md "Overload protection & graceful
degradation"): accepted connections enter a **bounded admission queue**;
when it is full the connection is *shed* — a sub-millisecond ``503`` +
``Retry-After`` written straight from the accept path, never a silent
block — except health/readiness probes, which are recognized by peeking
the request line and answered inline even at saturation.  Per-request
work is bounded by the ``X-Deadline-Ms`` deadline (HTTP ``504`` on
expiry), a ``Content-Length`` cap (``413``), and an absolute body-read
budget (``408`` against slow-drip clients).
"""

from __future__ import annotations

import json
import math
import queue
import socket
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

from repro.errors import ReproError
from repro.service.discovery import DiscoveryService
from repro.service.types import SearchRequest, ServiceError
from repro.storage.column import Column
from repro.storage.table import Table

__all__ = [
    "DiscoveryHTTPServer",
    "make_server",
    "serve",
]

_MAX_BODY_BYTES = 64 * 1024 * 1024
# A batch embeds under the scan mutex and probes under the shared read
# lock; capping its size bounds how long one request can occupy both.
_MAX_BATCH_REQUESTS = 256
# Total wall-clock budget for reading one request body: a client may
# drip bytes, but never stretch a single read past this (slowloris).
_BODY_READ_TIMEOUT_S = 10.0
# Retry-After advertised on shed responses.
_SHED_RETRY_AFTER_S = 1.0


def _table_from_payload(payload: object) -> Table:
    """Build a :class:`Table` from the ``/index/add`` wire format."""
    if not isinstance(payload, dict):
        raise ServiceError.bad_request("'table' must be a JSON object")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ServiceError.bad_request("'table.name' must be a non-empty string")
    columns_payload = payload.get("columns")
    if not isinstance(columns_payload, list) or not columns_payload:
        raise ServiceError.bad_request("'table.columns' must be a non-empty list")
    columns = []
    for entry in columns_payload:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ServiceError.bad_request(
                "each column must be {'name': str, 'values': list}"
            )
        values = entry.get("values")
        if not isinstance(values, list):
            raise ServiceError.bad_request(
                f"column {entry['name']!r} needs a 'values' list"
            )
        columns.append(Column(entry["name"], values))
    try:
        return Table(name, columns)
    except ReproError as error:
        raise ServiceError.bad_request(str(error)) from error


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`DiscoveryService`."""

    server: "DiscoveryHTTPServer"
    protocol_version = "HTTP/1.1"
    # Responses are written as separate header/body segments; with Nagle
    # on, those interact with the client's delayed ACK into ~40ms stalls
    # per keep-alive round trip.  Serving sockets are latency-bound, not
    # throughput-bound, so TCP_NODELAY is the right default.
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------------

    def setup(self) -> None:
        # Idle keep-alive connections time out so they hand their pool
        # worker back instead of pinning it forever; handle_one_request
        # treats the timeout as an orderly connection close.
        self.timeout = self.server.keepalive_idle_s
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: dict[str, object],
        *,
        retry_after_s: float | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after_s))))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(self, error: ServiceError) -> None:
        # An error can be sent before the request body was read (e.g. an
        # unknown route); under keep-alive the unread bytes would then be
        # parsed as the next request line, so drop the connection.
        self.close_connection = True
        self._send_json(
            error.status, error.to_dict(), retry_after_s=error.retry_after_s
        )

    def send_error(self, code: int, message=None, explain=None) -> None:  # noqa: ARG002
        """Protocol-level failures speak the routes' JSON envelope.

        ``http.server`` calls this for malformed request lines, oversized
        headers, unsupported methods/versions — every path a garbage-byte
        client can reach before routing.  The stock implementation emits
        an HTML page (and, for a pre-parse failure, no status line at
        all); clients of a JSON API deserve the same envelope and a
        defined connection state everywhere, so this closes and answers
        in JSON.
        """
        self.close_connection = True
        # A pre-parse failure leaves request_version at HTTP/0.9, which
        # would suppress the status line entirely; the response we write
        # is self-contained, so pin the version we actually speak.
        self.request_version = "HTTP/1.1"
        codes = {
            400: "bad_request",
            404: "not_found",
            408: "timeout",
            413: "payload_too_large",
            414: "bad_request",
            501: "bad_request",
            505: "bad_request",
        }
        default = "internal" if code >= 500 else "bad_request"
        detail = message or self.responses.get(code, (f"HTTP {code}",))[0]
        try:
            self._send_json(
                code,
                {"error": {"code": codes.get(code, default), "message": detail}},
            )
        except OSError:
            pass  # client already gone; nothing to tell it

    def _read_body(self, length: int) -> bytes:
        """Read exactly ``length`` body bytes under an absolute time budget.

        The per-read socket timeout alone cannot stop a slow-drip client
        (each dripped byte resets it), so the read loop checks a wall
        deadline between chunks and never waits in one ``recv`` longer
        than the remaining budget.
        """
        deadline = time.monotonic() + self.server.body_read_timeout_s
        chunks: list[bytes] = []
        remaining = length
        sock = self.connection
        original_timeout = sock.gettimeout()
        try:
            while remaining > 0:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise ServiceError.timeout(
                        "request body arrived too slowly; "
                        f"budget is {self.server.body_read_timeout_s:.1f}s"
                    )
                sock.settimeout(min(1.0, budget))
                try:
                    # read1 = at most one recv: returns whatever arrived,
                    # so the deadline is re-checked per network delivery.
                    chunk = self.rfile.read1(min(remaining, 65536))
                except TimeoutError:
                    continue
                if not chunk:
                    raise ServiceError.bad_request(
                        "client closed the connection mid-body"
                    )
                chunks.append(chunk)
                remaining -= len(chunk)
        finally:
            sock.settimeout(original_timeout)
        return b"".join(chunks)

    def _read_json(self) -> dict[str, object]:
        raw = self.headers.get("Content-Length")
        try:
            length = int(raw if raw is not None else 0)
        except ValueError as error:
            raise ServiceError.bad_request(
                "Content-Length header must be an integer"
            ) from error
        if raw is not None and length < 0:
            raise ServiceError.bad_request(
                f"Content-Length must be non-negative, got {length}"
            )
        if length == 0:
            raise ServiceError.bad_request("request body required")
        if length > self.server.max_body_bytes:
            # Rejected on the *declared* size, before a single body byte
            # is read — an oversized upload costs the server nothing.
            raise ServiceError.payload_too_large(
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes}-byte cap"
            )
        try:
            payload = json.loads(self._read_body(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError.bad_request(f"invalid JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise ServiceError.bad_request("request body must be a JSON object")
        return payload

    def _deadline_header_ms(self) -> int | None:
        """Parse the optional ``X-Deadline-Ms`` request header."""
        raw = self.headers.get("X-Deadline-Ms")
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError as error:
            raise ServiceError.bad_request(
                "X-Deadline-Ms header must be an integer"
            ) from error
        if value <= 0:
            raise ServiceError.bad_request(
                f"X-Deadline-Ms must be positive, got {value}"
            )
        return value

    def _dispatch(self, handler) -> None:
        try:
            status, payload = handler()
        except ServiceError as error:
            self._send_error_envelope(error)
        except ReproError as error:
            self._send_error_envelope(ServiceError.bad_request(str(error)))
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_envelope(ServiceError.internal(str(error)))
        else:
            self._send_json(status, payload)

    # -- routes -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        routes = {
            "/healthz": self._route_healthz,
            "/readyz": self._route_readyz,
            "/stats": self._route_stats,
            "/graph/stats": self._route_graph_stats,
        }
        handler = routes.get(self.path)
        if handler is None:
            self._send_error_envelope(
                ServiceError.not_found(f"no route GET {self.path}")
            )
            return
        self._dispatch(handler)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        routes = {
            "/search": self._route_search,
            "/search/batch": self._route_search_batch,
            "/paths": self._route_paths,
            "/index/add": self._route_index_add,
            "/index/drop": self._route_index_drop,
            "/index/refresh": self._route_index_refresh,
        }
        handler = routes.get(self.path)
        if handler is None:
            self._send_error_envelope(
                ServiceError.not_found(f"no route POST {self.path}")
            )
            return
        self._dispatch(handler)

    def _route_healthz(self) -> tuple[int, dict[str, object]]:
        # Deliberately lock-free: liveness probes must answer while a
        # writer holds the service's exclusive lock (long mutations,
        # compactions), so this reads only always-consistent scalars and
        # never calls stats() or search paths.
        service = self.server.service
        return 200, {
            "status": "ok",
            "indexed": service.is_indexed,
            "indexed_columns": service.engine.indexed_count,
        }

    def _route_readyz(self) -> tuple[int, dict[str, object]]:
        # Readiness, distinct from liveness: a live server is not ready
        # while it has nothing to serve (pre-open / durable recovery
        # still replaying) or while degraded-mode sits at its critical
        # tier — load balancers drain it; /healthz keeps it un-killed.
        # Same lock-free discipline as /healthz.
        ready, reason = self.server.service.readiness
        return (200 if ready else 503), {"ready": ready, "reason": reason}

    def _route_stats(self) -> tuple[int, dict[str, object]]:
        payload = self.server.service.stats().to_dict()
        payload["admission"] = self.server.admission_stats()
        return 200, payload

    def _route_graph_stats(self) -> tuple[int, dict[str, object]]:
        return 200, self.server.service.graph_stats()

    def _route_paths(self) -> tuple[int, dict[str, object]]:
        deadline_ms = self._deadline_header_ms()
        payload = self._read_json()
        src, dst = payload.get("src"), payload.get("dst")
        if not isinstance(src, str) or not isinstance(dst, str):
            raise ServiceError.bad_request("'src' and 'dst' must be 'db.table' strings")
        max_hops = payload.get("max_hops", 3)
        limit = payload.get("limit", 5)
        combiner = payload.get("combiner", "product")
        if not isinstance(max_hops, int) or isinstance(max_hops, bool):
            raise ServiceError.bad_request("'max_hops' must be an integer")
        if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)):
            raise ServiceError.bad_request("'limit' must be an integer or null")
        if not isinstance(combiner, str):
            raise ServiceError.bad_request("'combiner' must be a string")
        unknown = set(payload) - {"src", "dst", "max_hops", "limit", "combiner"}
        if unknown:
            raise ServiceError.bad_request(
                f"unknown field(s): {', '.join(sorted(unknown))}"
            )
        paths = self.server.service.find_paths(
            src,
            dst,
            max_hops=max_hops,
            limit=limit,
            combiner=combiner,
            deadline_ms=deadline_ms,
        )
        return 200, {
            "src": src,
            "dst": dst,
            "paths": [path.to_dict() for path in paths],
        }

    def _route_search(self) -> tuple[int, dict[str, object]]:
        deadline_ms = self._deadline_header_ms()
        request = SearchRequest.from_dict(self._read_json())
        if request.deadline_ms is None and deadline_ms is not None:
            # Body wins over header wins over the config default.
            request = replace(request, deadline_ms=deadline_ms)
        response = self.server.service.search_coalesced(request)
        return 200, response.to_dict()

    def _route_search_batch(self) -> tuple[int, dict[str, object]]:
        deadline_ms = self._deadline_header_ms()
        payload = self._read_json()
        requests_payload = payload.get("requests")
        if not isinstance(requests_payload, list):
            raise ServiceError.bad_request("'requests' must be a list")
        if len(requests_payload) > _MAX_BATCH_REQUESTS:
            raise ServiceError.bad_request(
                f"batch exceeds {_MAX_BATCH_REQUESTS} requests; split it"
            )
        requests = [SearchRequest.from_dict(entry) for entry in requests_payload]
        responses = self.server.service.search_many(requests, deadline_ms=deadline_ms)
        return 200, {"responses": [response.to_dict() for response in responses]}

    def _route_index_add(self) -> tuple[int, dict[str, object]]:
        payload = self._read_json()
        database = payload.get("database")
        if not isinstance(database, str) or not database:
            raise ServiceError.bad_request("'database' must be a non-empty string")
        table = _table_from_payload(payload.get("table"))
        stats = self.server.service.add_table(database, table)
        return 200, stats.to_dict()

    def _route_index_drop(self) -> tuple[int, dict[str, object]]:
        payload = self._read_json()
        database = payload.get("database")
        table = payload.get("table")
        if not isinstance(database, str) or not isinstance(table, str):
            raise ServiceError.bad_request("'database' and 'table' must be strings")
        stats = self.server.service.drop_table(database, table)
        return 200, stats.to_dict()

    def _route_index_refresh(self) -> tuple[int, dict[str, object]]:
        payload = self._read_json()
        ref = payload.get("ref")
        if not isinstance(ref, str) or not ref:
            raise ServiceError.bad_request("'ref' must be a 'db.table.column' string")
        stats = self.server.service.refresh_column(ref)
        return 200, stats.to_dict()


class DiscoveryHTTPServer(HTTPServer):
    """Worker-pool HTTP server bound to one :class:`DiscoveryService`.

    The accept loop (``serve_forever``, typically run by :meth:`start`)
    hands accepted sockets to a fixed pool of ``workers`` threads; each
    worker serves one persistent connection at a time (all of its
    keep-alive requests) and then takes the next.  Size the pool to the
    expected number of concurrent persistent connections — idle
    connections release their worker after ``keepalive_idle_s``.

    Lifecycle: ``start()`` → serve → ``shutdown()`` (joins the accept
    thread and every worker, closes in-flight and queued connections)
    → ``server_close()``.  Or simply::

        with make_server(service, port=0) as server:
            ...  # server is live here
        # fully torn down: no threads, no sockets
    """

    # The socketserver default backlog (5) drops connections under bursts
    # of concurrent clients; the service is built for exactly that load.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: DiscoveryService,
        *,
        verbose: bool = False,
        workers: int = 32,
        keepalive_idle_s: float = 5.0,
        admission_queue_depth: int | None = None,
        max_body_bytes: int = _MAX_BODY_BYTES,
        body_read_timeout_s: float = _BODY_READ_TIMEOUT_S,
        shed_retry_after_s: float = _SHED_RETRY_AFTER_S,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if admission_queue_depth is not None and admission_queue_depth < 1:
            raise ValueError(
                f"admission_queue_depth must be >= 1, got {admission_queue_depth}"
            )
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        if body_read_timeout_s <= 0:
            raise ValueError(
                f"body_read_timeout_s must be positive, got {body_read_timeout_s}"
            )
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.keepalive_idle_s = keepalive_idle_s
        self.max_body_bytes = max_body_bytes
        self.body_read_timeout_s = body_read_timeout_s
        self.shed_retry_after_s = shed_retry_after_s
        # Bounded admission queue: connections the pool has not picked up
        # yet.  When it is full the accept path *sheds* (fast 503 +
        # Retry-After, see _shed_connection) instead of blocking — the
        # overload answer is explicit and sub-millisecond, never a
        # client-invisible stall.
        self._connections: queue.Queue = queue.Queue(
            maxsize=(
                admission_queue_depth
                if admission_queue_depth is not None
                else 2 * workers
            )
        )
        self._active_lock = threading.Lock()
        self._active: set[socket.socket] = set()
        self._closed = False
        self._serving = threading.Event()
        self._serve_thread: threading.Thread | None = None
        # Admission/containment telemetry (shared with the accept path).
        self._admission_lock = threading.Lock()
        self._admitted = 0
        self._sheds = 0
        self._health_inline = 0
        self._connection_errors = 0
        self._queue_wait_total_s = 0.0
        self._queue_wait_max_s = 0.0
        # Workers spawn lazily on the first serve_forever() call — the
        # constructor (and make_server) only *binds*, per its contract.
        self._n_workers = workers
        self._workers: list[threading.Thread] = []

    # -- worker pool --------------------------------------------------------------

    def _ensure_workers(self) -> None:
        """Spawn the fixed pool once serving actually begins (idempotent).

        Threads are started while the lock is held, so any worker a
        concurrent :meth:`shutdown` can observe in ``_workers`` is
        already joinable.
        """
        with self._active_lock:
            if self._workers or self._closed:
                return
            for index in range(self._n_workers):
                worker = threading.Thread(
                    target=self._worker, name=f"http-worker-{index}", daemon=True
                )
                worker.start()
                self._workers.append(worker)

    def process_request(self, request, client_address) -> None:
        """Admit an accepted connection or shed it (called by serve_forever).

        Admission control: the hand-off queue is bounded, and a full
        queue means the pool is saturated *and* a backlog of admitted
        connections is already waiting.  Queueing deeper would only
        manufacture doomed work, so the connection is answered ``503 +
        Retry-After`` right here on the accept thread — a fast fail the
        client can act on, instead of the silent open-ended stall this
        method used to be.  Health and readiness probes are recognized
        (request-line peek) and answered inline even while shedding.
        """
        if self._closed:
            self.shutdown_request(request)
            return
        try:
            self._connections.put_nowait((request, client_address, time.monotonic()))
        except queue.Full:
            self._shed_connection(request)

    def _shed_connection(self, request) -> None:
        """Answer a connection the admission queue rejected, then close it.

        Never touches the service's lock/GEMM paths: sheds must stay
        cheap precisely when the service is busiest.  The one exception
        is lock-free health state — ``/healthz`` and ``/readyz`` are
        always admitted (answered inline), so probes keep working while
        the service is saturated.
        """
        try:
            path = self._peek_health_path(request)
            if path == "/healthz":
                service = self.service
                payload: dict[str, object] = {
                    "status": "ok",
                    "indexed": service.is_indexed,
                    "indexed_columns": service.engine.indexed_count,
                }
                with self._admission_lock:
                    self._health_inline += 1
                self._respond_inline(request, 200, "OK", payload)
            elif path == "/readyz":
                ready, reason = self.service.readiness
                with self._admission_lock:
                    self._health_inline += 1
                self._respond_inline(
                    request,
                    200 if ready else 503,
                    "OK" if ready else "Service Unavailable",
                    {"ready": ready, "reason": reason},
                )
            else:
                with self._admission_lock:
                    self._sheds += 1
                self.service.degradation.record_shed()
                error = ServiceError.overloaded(
                    "admission queue is full; retry shortly",
                    retry_after_s=self.shed_retry_after_s,
                )
                self._respond_inline(
                    request,
                    503,
                    "Service Unavailable",
                    error.to_dict(),
                    retry_after_s=self.shed_retry_after_s,
                )
        finally:
            self.shutdown_request(request)

    @staticmethod
    def _peek_health_path(request) -> str | None:
        """Peek the request line of a to-be-shed connection for a probe.

        ``MSG_PEEK`` leaves the bytes in the kernel buffer, so this never
        corrupts the (discarded) stream; the timeout is tiny because a
        real prober writes its GET immediately — anything slower is
        treated as sheddable traffic.
        """
        try:
            request.settimeout(0.02)
            head = request.recv(32, socket.MSG_PEEK)
        except (OSError, ValueError):
            return None
        if head.startswith(b"GET /healthz"):
            return "/healthz"
        if head.startswith(b"GET /readyz"):
            return "/readyz"
        return None

    @staticmethod
    def _respond_inline(
        request,
        status: int,
        reason: str,
        payload: dict[str, object],
        *,
        retry_after_s: float | None = None,
    ) -> None:
        """Write one complete HTTP/1.1 response straight to the socket.

        Used from the accept path (no handler, no worker); a short send
        timeout keeps a slow or dead client from stalling the accept
        loop, and errors are swallowed — the connection is being closed
        either way.
        """
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if retry_after_s is not None:
            lines.append(f"Retry-After: {max(1, math.ceil(retry_after_s))}")
        data = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body
        try:
            request.settimeout(0.5)
            request.sendall(data)
        except OSError:
            pass

    def _worker(self) -> None:
        while True:
            item = self._connections.get()
            if item is None:
                return
            request, client_address, enqueued_at = item
            wait_s = time.monotonic() - enqueued_at
            with self._admission_lock:
                self._admitted += 1
                self._queue_wait_total_s += wait_s
                if wait_s > self._queue_wait_max_s:
                    self._queue_wait_max_s = wait_s
            with self._active_lock:
                if self._closed:
                    self.shutdown_request(request)
                    continue
                self._active.add(request)
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - connection-level failure
                self.handle_error(request, client_address)
            finally:
                with self._active_lock:
                    self._active.discard(request)
                self.shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        """Per-connection containment: count, stay quiet, never escalate.

        A client that vanishes mid-request (reset, broken pipe, timeout)
        is routine abuse-adjacent traffic — it must not traceback-spam
        the log or take the worker down.  Non-I/O failures are real bugs
        and keep the stock traceback.
        """
        error = sys.exc_info()[1]
        with self._admission_lock:
            self._connection_errors += 1
        if isinstance(error, (TimeoutError, OSError)):
            if self.verbose:
                print(f"connection error from {client_address}: {error!r}")
            return
        super().handle_error(request, client_address)

    def admission_stats(self) -> dict[str, object]:
        """Admission-control counters (merged into ``GET /stats``)."""
        with self._admission_lock:
            admitted = self._admitted
            mean_ms = (
                self._queue_wait_total_s / admitted * 1e3 if admitted else 0.0
            )
            return {
                "queue_depth": self._connections.maxsize,
                "queued_now": self._connections.qsize(),
                "admitted": admitted,
                "sheds": self._sheds,
                "health_inline": self._health_inline,
                "connection_errors": self._connection_errors,
                "queue_wait_mean_ms": round(mean_ms, 3),
                "queue_wait_max_ms": round(self._queue_wait_max_s * 1e3, 3),
            }

    # -- lifecycle ----------------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Accept loop; spawns the worker pool and is tracked so
        :meth:`shutdown` knows whether to stop it.

        The closed checks and the serving flag share one lock with
        shutdown()'s close transition, so the two cannot interleave into
        an unstoppable loop or a leaked pool: either shutdown closes
        first (this call returns before serving; _ensure_workers refuses
        to spawn once closed) or the spawned workers and the serving
        flag are visible to shutdown, which joins the pool and stops the
        loop — even one that has not reached the poll yet
        (``BaseServer.serve_forever`` re-checks its stop request every
        iteration).
        """
        self._ensure_workers()  # no-op once closed
        with self._active_lock:
            if self._closed:
                return
            self._serving.set()
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving.clear()

    def start(self) -> "DiscoveryHTTPServer":
        """Run the accept loop on a background thread (idempotent).

        Waits until the loop is actually accepting before returning, so
        an immediate :meth:`shutdown` (or request) cannot race the
        thread's startup.
        """
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="http-accept", daemon=True
            )
            self._serve_thread.start()
            self._serving.wait(timeout=10)
        return self

    def shutdown(self) -> None:
        """Stop accepting, unblock and join every thread, close all sockets.

        Safe to call more than once, and safe whether or not the accept
        loop ever ran.  After it returns no server-owned thread is alive:
        the handler/worker threads have exited (idle keep-alive reads are
        unblocked by closing their sockets) and queued-but-unserved
        connections are closed rather than leaked.
        """
        with self._active_lock:
            if self._closed:
                return
            self._closed = True
        if self._serving.is_set():
            # Stops serve_forever wherever it runs — a thread spawned by
            # start() or one the caller started — and waits for it to exit.
            super().shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
            self._serve_thread = None
        # Unblock workers parked on idle keep-alive reads.  The accept
        # loop is stopped and _closed is set, so _active can only shrink.
        with self._active_lock:
            active = list(self._active)
        for connection in active:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for _ in self._workers:
            self._connections.put(None)
        for worker in self._workers:
            worker.join(timeout=10)
        # Close connections accepted but never picked up by a worker.
        # Drained stop sentinels are re-issued afterwards for any worker
        # that outlived its join timeout (e.g. one mid-request), so a
        # late finisher always finds a sentinel instead of blocking on
        # an empty queue forever.
        while True:
            try:
                item = self._connections.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                self.shutdown_request(item[0])
        for worker in self._workers:
            if worker.is_alive():
                self._connections.put(None)

    def __enter__(self) -> "DiscoveryHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self.server_close()


def make_server(
    service: DiscoveryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = False,
    workers: int = 32,
    keepalive_idle_s: float = 5.0,
    admission_queue_depth: int | None = None,
    max_body_bytes: int = _MAX_BODY_BYTES,
    body_read_timeout_s: float = _BODY_READ_TIMEOUT_S,
) -> DiscoveryHTTPServer:
    """Bind (but do not start) a server; ``port=0`` picks a free port."""
    return DiscoveryHTTPServer(
        (host, port),
        service,
        verbose=verbose,
        workers=workers,
        keepalive_idle_s=keepalive_idle_s,
        admission_queue_depth=admission_queue_depth,
        max_body_bytes=max_body_bytes,
        body_read_timeout_s=body_read_timeout_s,
    )


def serve(
    service: DiscoveryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 32,
    admission_queue_depth: int | None = None,
    max_body_bytes: int = _MAX_BODY_BYTES,
    body_read_timeout_s: float = _BODY_READ_TIMEOUT_S,
) -> None:
    """Serve forever (blocking); Ctrl-C shuts down cleanly."""
    server = make_server(
        service,
        host,
        port,
        verbose=True,
        workers=workers,
        admission_queue_depth=admission_queue_depth,
        max_body_bytes=max_body_bytes,
        body_read_timeout_s=body_read_timeout_s,
    )
    bound_host, bound_port = server.server_address[:2]
    print(f"serving join discovery on http://{bound_host}:{bound_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
