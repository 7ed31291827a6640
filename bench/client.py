"""Loopback HTTP client: one keep-alive connection per client thread.

A hand-rolled HTTP/1.1 client (one ``sendall``, a header scan, a body
read) keeps the parent's per-request cost near 50 microseconds, so the
two client threads sharing the parent's interpreter lock are never what
a throughput number measures.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from bench.workload import K, WriteOp, check_response

__all__ = ["Connection", "Reader", "SearchSample", "WriteSample", "do_write", "get_json"]

_TIMEOUT_S = 60.0


class Connection:
    """A persistent HTTP/1.1 connection that reconnects after a close."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._sock: socket.socket | None = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self._port), timeout=_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buffer = b""
        return sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _fill(self, sock: socket.socket) -> None:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        self._buffer += chunk

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request, return ``(status, body)``."""
        sock = self._sock if self._sock is not None else self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        try:
            sock.sendall(head.encode("ascii") + body)
            while (end := self._buffer.find(b"\r\n\r\n")) < 0:
                self._fill(sock)
            header = self._buffer[:end].lower()
            status = int(header[9:12])
            at = header.index(b"content-length:") + 15
            stop = header.find(b"\r\n", at)
            length = int(header[at : stop if stop >= 0 else len(header)])
            while len(self._buffer) < end + 4 + length:
                self._fill(sock)
        except (OSError, ValueError):
            self.close()
            raise
        payload = self._buffer[end + 4 : end + 4 + length]
        self._buffer = self._buffer[end + 4 + length :]
        if b"connection: close" in header:
            self.close()
        return status, payload


def get_json(port: int, path: str) -> dict:
    connection = Connection(port)
    try:
        status, body = connection.request("GET", path)
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


@dataclass(slots=True)
class SearchSample:
    sent: float
    done: float
    failure: str | None
    answer: list[str]  # candidate refs, best first
    timing: dict | None  # the response's own load/embed/lookup block

    @property
    def latency(self) -> float:
        return self.done - self.sent


@dataclass(slots=True)
class WriteSample:
    kind: str
    table: str | None
    failure: str | None
    indexed_columns: int | None
    done: float = 0.0


@dataclass
class Reader:
    """One closed-loop search client: next request only after the last answer."""

    port: int
    stream: object  # PermutationStream | ZipfStream
    threshold: float
    dropped: Mapping[tuple[str, str], float] | None = None
    samples: list[SearchSample] = field(default_factory=list)
    error: Exception | None = None
    _thread: threading.Thread | None = None

    def search(self, connection: Connection, ref: str) -> SearchSample:
        database, table, _column = ref.split(".")
        body = f'{{"query":"{ref}","k":{K}}}'.encode()
        sent = time.perf_counter()
        try:
            status, raw = connection.request("POST", "/search", body)
        except (OSError, ValueError):
            return SearchSample(sent, time.perf_counter(), "status", [], None)
        done = time.perf_counter()
        failure, payload = check_response(
            status,
            raw,
            k=K,
            threshold=self.threshold,
            query_table=(database, table),
            dropped=self.dropped,
            sent_at=sent,
        )
        if failure is not None:
            return SearchSample(sent, done, failure, [], None)
        answer = [candidate["ref"] for candidate in payload["candidates"]]
        return SearchSample(sent, done, None, answer, payload.get("timing"))

    def _run(self, stop_at: float) -> None:
        connection = Connection(self.port)
        try:
            while time.perf_counter() < stop_at:
                self.samples.append(self.search(connection, self.stream.next()))
        except Exception as error:  # noqa: BLE001 - re-raised by join()
            self.error = error
        finally:
            connection.close()

    def start(self, stop_at: float) -> None:
        self._thread = threading.Thread(target=self._run, args=(stop_at,), daemon=True)
        self._thread.start()

    def join(self) -> None:
        self._thread.join()
        if self.error is not None:
            raise self.error


def do_write(connection: Connection, op: WriteOp) -> WriteSample:
    """Issue one index mutation; it fails unless acknowledged with stats."""
    try:
        status, raw = connection.request("POST", op.path, op.body)
    except (OSError, ValueError):
        return WriteSample(op.kind, op.table, "status", None, time.perf_counter())
    done = time.perf_counter()
    if status != 200:
        return WriteSample(op.kind, op.table, "status", None, done)
    try:
        indexed = json.loads(raw)["indexed_columns"]
    except (ValueError, KeyError, TypeError):
        return WriteSample(op.kind, op.table, "malformed", None, done)
    if not isinstance(indexed, int):
        return WriteSample(op.kind, op.table, "malformed", None, done)
    return WriteSample(op.kind, op.table, None, indexed, done)
