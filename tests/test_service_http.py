"""HTTP round-trip tests for the JSON serving layer (stdlib http.client)."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.core.config import WarpGateConfig
from repro.service import DiscoveryService, make_server
from repro.warehouse.connector import WarehouseConnector


@pytest.fixture()
def served(toy_warehouse):
    """A DiscoveryService behind a live HTTP server on a free port.

    The server's context manager starts the accept loop on enter and
    joins every worker/accept thread on exit — the tests below verify
    that contract explicitly.
    """
    service = DiscoveryService(WarpGateConfig(threshold=0.3))
    service.open(WarehouseConnector(toy_warehouse))
    with make_server(service, "127.0.0.1", 0, workers=8) as server:
        yield service, server.server_address[1]


def request(port: int, method: str, path: str, body: dict | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestHealthAndStats:
    def test_healthz(self, served):
        _, port = served
        status, payload = request(port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["indexed"] is True
        assert payload["indexed_columns"] == 8

    def test_stats(self, served):
        _, port = served
        status, payload = request(port, "GET", "/stats")
        assert status == 200
        assert payload["backend"] == "lsh"
        assert payload["indexed_columns"] == 8
        assert payload["tables"] == 3
        assert "value_vectors" in payload["caches"]
        assert payload["caches"]["value_vectors"]["size"] > 0

    def test_unknown_route(self, served):
        _, port = served
        status, payload = request(port, "GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"


class TestSearchEndpoint:
    def test_search_roundtrip(self, served):
        _, port = served
        status, payload = request(
            port, "POST", "/search", {"query": "db.customers.company", "k": 3}
        )
        assert status == 200
        assert payload["candidates"][0]["ref"] == "db.vendors.vendor_name"
        assert payload["candidates"][0]["score"] > 0.9

    def test_search_matches_python_api(self, served):
        service, port = served
        _, payload = request(
            port, "POST", "/search", {"query": "db.customers.company", "k": 5}
        )
        local = service.search("db.customers.company", 5)
        assert [c["ref"] for c in payload["candidates"]] == [
            str(ref) for ref in local.refs
        ]

    def test_search_unknown_table_404(self, served):
        _, port = served
        status, payload = request(
            port, "POST", "/search", {"query": "db.ghost.col", "k": 3}
        )
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_search_malformed_body_400(self, served):
        _, port = served
        status, payload = request(port, "POST", "/search", {"k": 3})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_bad_content_length_400(self, served):
        _, port = served
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.putrequest("POST", "/search")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_oversized_batch_400(self, served):
        _, port = served
        body = {"requests": [{"query": "db.customers.company"}] * 257}
        status, payload = request(port, "POST", "/search/batch", body)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_batch_endpoint_parity(self, served):
        _, port = served
        body = {
            "requests": [
                {"query": "db.customers.company", "k": 3},
                {"query": "db.vendors.vendor_name", "k": 3},
            ]
        }
        status, payload = request(port, "POST", "/search/batch", body)
        assert status == 200
        assert len(payload["responses"]) == 2
        single = request(
            port, "POST", "/search", {"query": "db.customers.company", "k": 3}
        )[1]
        batch_candidates = payload["responses"][0]["candidates"]
        assert len(batch_candidates) == len(single["candidates"])
        for got, expected in zip(batch_candidates, single["candidates"]):
            assert got["ref"] == expected["ref"]
            # Batched probes score via one GEMM over the float32 arena;
            # single probes via a gathered matvec — equal to f32 precision.
            assert got["score"] == pytest.approx(expected["score"], abs=1e-6)


class TestIndexMutationEndpoints:
    def test_add_then_search_then_drop(self, served):
        _, port = served
        table_payload = {
            "database": "db",
            "table": {
                "name": "suppliers",
                "columns": [
                    {"name": "supplier_id", "values": [100, 101, 102]},
                    {
                        "name": "supplier_name",
                        "values": [
                            "Acme Dynamics Corp",
                            "Vertex Energy Group",
                            "Nova Analytics Llc",
                        ],
                    },
                ],
            },
        }
        status, stats = request(port, "POST", "/index/add", table_payload)
        assert status == 200
        assert stats["indexed_columns"] == 10
        assert stats["mutations"] == 1

        _, payload = request(
            port, "POST", "/search", {"query": "db.customers.company", "k": 10}
        )
        refs = [c["ref"] for c in payload["candidates"]]
        assert "db.suppliers.supplier_name" in refs

        status, stats = request(
            port, "POST", "/index/drop", {"database": "db", "table": "suppliers"}
        )
        assert status == 200
        assert stats["indexed_columns"] == 8
        _, payload = request(
            port, "POST", "/search", {"query": "db.customers.company", "k": 10}
        )
        refs = [c["ref"] for c in payload["candidates"]]
        assert "db.suppliers.supplier_name" not in refs

    def test_drop_unknown_table_404(self, served):
        _, port = served
        status, payload = request(
            port, "POST", "/index/drop", {"database": "db", "table": "ghost"}
        )
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_refresh_endpoint(self, served):
        _, port = served
        status, stats = request(
            port, "POST", "/index/refresh", {"ref": "db.vendors.vendor_name"}
        )
        assert status == 200
        assert stats["mutations"] == 1

    def test_add_malformed_table_400(self, served):
        _, port = served
        status, payload = request(
            port, "POST", "/index/add", {"database": "db", "table": {"name": ""}}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"


class TestServerLifecycle:
    def make_service(self, toy_warehouse) -> DiscoveryService:
        service = DiscoveryService(WarpGateConfig(threshold=0.3))
        service.open(WarehouseConnector(toy_warehouse))
        return service

    def test_shutdown_joins_every_server_thread(self, toy_warehouse):
        """No worker or accept thread survives the context manager."""
        before = {thread.name for thread in threading.enumerate()}
        service = self.make_service(toy_warehouse)
        with make_server(service, "127.0.0.1", 0, workers=6) as server:
            port = server.server_address[1]
            live = {thread.name for thread in threading.enumerate()} - before
            assert any(name.startswith("http-worker") for name in live)
            assert "http-accept" in live
            status, _payload = request(port, "GET", "/healthz")
            assert status == 200
        leaked = {
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith(("http-worker", "http-accept"))
        }
        assert leaked == set(), f"server threads leaked: {leaked}"

    def test_shutdown_is_idempotent_and_unserved_is_safe(self, toy_warehouse):
        """shutdown() twice, and on a never-started server, is a no-op."""
        service = self.make_service(toy_warehouse)
        server = make_server(service, "127.0.0.1", 0)
        server.shutdown()  # accept loop never ran
        server.shutdown()
        server.server_close()

    def test_second_server_cannot_bind_a_served_port(self, toy_warehouse):
        """One process owns a port: a second bind fails, never shares silently."""
        first = make_server(self.make_service(toy_warehouse), "127.0.0.1", 0, workers=2)
        port = first.server_address[1]
        with first:
            with pytest.raises(OSError):
                make_server(
                    self.make_service(toy_warehouse), "127.0.0.1", port, workers=2
                )
        first.server_close()

    def test_make_server_only_binds(self, toy_warehouse):
        """No worker threads exist until serving actually starts."""
        service = self.make_service(toy_warehouse)
        server = make_server(service, "127.0.0.1", 0, workers=4)
        try:
            assert not any(
                thread.name.startswith("http-worker")
                for thread in threading.enumerate()
            )
            server.start()
            workers = [
                thread
                for thread in threading.enumerate()
                if thread.name.startswith("http-worker")
            ]
            assert len(workers) == 4
        finally:
            server.shutdown()
            server.server_close()

    def test_shutdown_unblocks_idle_keepalive_connection(self, toy_warehouse):
        """A worker parked on an idle persistent connection exits promptly."""
        service = self.make_service(toy_warehouse)
        server = make_server(service, "127.0.0.1", 0, workers=2).start()
        port = server.server_address[1]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        connection.request("GET", "/healthz")
        connection.getresponse().read()
        # The connection now idles, pinning one worker in a blocking read.
        server.shutdown()
        server.server_close()
        connection.close()
        leaked = [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith(("http-worker", "http-accept"))
        ]
        assert leaked == []

    def test_overload_handoff_sheds_instead_of_blocking(self, toy_warehouse):
        """A full admission queue fast-fails new connections with 503.

        The accept thread must never block on hand-off (a blocked accept
        loop stalls *every* client, including health probes): past the
        bound it answers 503 + Retry-After inline and closes.
        """
        service = self.make_service(toy_warehouse)
        server = make_server(service, "127.0.0.1", 0, workers=2)
        pairs = [socket.socketpair() for _ in range(5)]
        try:
            assert server._connections.maxsize == 4
            # No workers are running (make_server only binds), so four
            # hand-offs fill the queue...
            for left, _right in pairs[:4]:
                server.process_request(left, ("127.0.0.1", 0))
            assert server._connections.full()
            # ...and a fifth is shed inline — no blocking, 503 on the wire.
            start = time.monotonic()
            server.process_request(pairs[4][0], ("127.0.0.1", 0))
            assert time.monotonic() - start < 2.0
            pairs[4][1].settimeout(5)
            raw = pairs[4][1].recv(65536)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert b"503" in head.split(b"\r\n")[0]
            assert b"Retry-After:" in head
            payload = json.loads(body)
            assert payload["error"]["code"] == "overloaded"
            stats = server.admission_stats()
            assert stats["sheds"] == 1
            assert service.degradation.snapshot()["shed_total"] == 1
            server.shutdown()
        finally:
            server.server_close()
            for left, right in pairs:
                left.close()
                right.close()

    def test_shed_still_answers_health_probes(self, toy_warehouse):
        """/healthz and /readyz are answered inline even while shedding."""
        service = self.make_service(toy_warehouse)
        server = make_server(service, "127.0.0.1", 0, workers=2)
        pairs = [socket.socketpair() for _ in range(6)]
        try:
            for left, _right in pairs[:4]:
                server.process_request(left, ("127.0.0.1", 0))
            assert server._connections.full()
            # A health probe arriving while the queue is full still gets
            # its liveness answer (written inline by the accept path).
            pairs[4][1].sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            server.process_request(pairs[4][0], ("127.0.0.1", 0))
            pairs[4][1].settimeout(5)
            raw = pairs[4][1].recv(65536)
            assert b"200" in raw.split(b"\r\n")[0]
            assert json.loads(raw.partition(b"\r\n\r\n")[2])["status"] == "ok"
            # Readiness likewise answers inline (not-ready counts as an
            # answer — the probe must never be silently dropped).
            pairs[5][1].sendall(b"GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n")
            server.process_request(pairs[5][0], ("127.0.0.1", 0))
            pairs[5][1].settimeout(5)
            raw = pairs[5][1].recv(65536)
            assert raw.split(b"\r\n")[0].split(b" ")[1] in (b"200", b"503")
            assert server.admission_stats()["health_inline"] == 2
            assert server.admission_stats()["sheds"] == 0
            server.shutdown()
        finally:
            server.server_close()
            for left, right in pairs:
                left.close()
                right.close()

    def test_healthz_is_lock_free(self, served):
        """Liveness answers while a writer holds the exclusive lock."""
        service, port = served
        service._lock.acquire_write()
        try:
            status, payload = request(port, "GET", "/healthz")
        finally:
            service._lock.release_write()
        assert status == 200
        assert payload["status"] == "ok"

    def test_search_routes_through_the_coalescer(self, served):
        """POST /search is served by the coalesced path, visible in /stats."""
        _, port = served
        request(port, "POST", "/search", {"query": "db.customers.company", "k": 3})
        _, stats = request(port, "GET", "/stats")
        coalescer = stats["caches"]["coalescer"]
        assert coalescer["requests"] >= 1
        assert "batch_histogram" in coalescer
        assert stats["caches"]["query_cache"]["size"] >= 1


class TestServeCommand:
    def test_cli_serve_wires_endpoints(self, tmp_path):
        """`python -m repro serve` plumbing: config → service → server."""
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", str(tmp_path), "--port", "0"])
        assert args.handler.__name__ == "cmd_serve"
        assert args.port == 0
        assert args.host == "127.0.0.1"
