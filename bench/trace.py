"""Spans recorded from the benchmark's side of each layer boundary.

The program under test carries no timers of its own: the traced child
wraps the *public* callables a request crosses (``scan_column``,
``encode_batch``, ``WarpGate.search``, ...) on the instances it built, so
a composed call records its inner layers as child spans.  Spans stay in
memory and are written once, at exit, one JSON object per line::

    {"id": 7, "parent": 5, "request": 2, "phase": "service",
     "name": "embedding.encode_batch", "t0": 1.234567, "t1": 1.236001}

``t0``/``t1`` are seconds on the process's monotonic clock; spans of one
request share ``request``; ``parent`` is the span that was open when this
one started (``null`` at the top); ``phase`` names the part of the replay.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer", "durations_ms", "self_times_ms"]


class _Span:
    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        tracer = self._tracer
        record = self.record
        record["id"] = len(tracer.spans)
        record["parent"] = tracer._open[-1] if tracer._open else None
        tracer.spans.append(record)
        tracer._open.append(record["id"])
        record["t0"] = time.perf_counter()
        return record

    def __exit__(self, *exc_info) -> None:
        self.record["t1"] = time.perf_counter()
        self._tracer._open.pop()


class Tracer:
    """Single-threaded span recorder."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        #: Stamped on every span started until they change.
        self.request: int | None = None
        self.phase: str | None = None

    def span(self, name: str, **attributes) -> _Span:
        return _Span(
            self,
            {
                "id": None,
                "parent": None,
                "request": self.request,
                "phase": self.phase,
                "name": name,
                "t0": None,
                "t1": None,
                **attributes,
            },
        )

    def wrap(self, owner: object, attribute: str, name: str, annotate=None) -> None:
        """Replace ``owner.attribute`` with a version that records a span.

        ``annotate(result)`` may return counts to store on the span.
        """
        inner = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = inner(*args, **kwargs)
            if annotate is not None:
                record.update(annotate(result))
            return result

        setattr(owner, attribute, traced)

    def write(self, path: Path, mode: str = "w") -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open(mode, encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def durations_ms(spans: list[dict], name: str, **where) -> list[float]:
    """Durations of the spans called ``name`` whose attributes match ``where``."""
    return [
        (span["t1"] - span["t0"]) * 1e3
        for span in spans
        if span["name"] == name and all(span.get(key) == value for key, value in where.items())
    ]


def self_times_ms(spans: list[dict], name: str, **where) -> list[float]:
    """Each matching span's duration minus its direct children's durations."""
    inner: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            inner[span["parent"]] += span["t1"] - span["t0"]
    return [
        (span["t1"] - span["t0"] - inner[span["id"]]) * 1e3
        for span in spans
        if span["name"] == name and all(span.get(key) == value for key, value in where.items())
    ]
