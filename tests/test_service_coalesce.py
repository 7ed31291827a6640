"""Coalescer correctness: batching changes scheduling, never results.

Three layers of evidence:

* unit tests drive :class:`QueryCoalescer` directly with a controllable
  executor (fast path, batch formation, ``max_batch``, per-request error
  isolation, executor-failure recovery);
* concurrency tests fire barrier-synchronized clients through
  ``search_coalesced`` on every backend (lsh / exact / pivot) and
  require results identical to the sequential reference path;
* a hypothesis churn test interleaves add/drop/refresh mutations with
  coalesced searches and checks every response against the library
  engine's uncached pipeline — which also pins the query cache's
  generation invalidation end to end.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WarpGateConfig
from repro.errors import DeadlineExceededError
from repro.core.profiles import EmbeddingCache
from repro.core.warpgate import WarpGate
from repro.eval.perf import synthetic_corpus
from repro.service import DiscoveryService, QueryCoalescer, ServiceError
from repro.storage.column import Column
from repro.storage.schema import ColumnRef
from repro.storage.table import Table
from repro.warehouse.catalog import Warehouse
from repro.warehouse.connector import WarehouseConnector

N, DIM, POOL = 400, 32, 24
FLOOR = 0.3

VARIANTS = {
    "lsh": {"search_backend": "lsh"},
    "exact": {"search_backend": "exact"},
    "pivot": {"search_backend": "pivot"},
}


def build_service(**overrides) -> tuple[DiscoveryService, list[ColumnRef]]:
    """A service over a synthetic pre-embedded index + cached query refs."""
    cache = EmbeddingCache()
    config = WarpGateConfig(model_name="hashing", dim=DIM, **overrides)
    engine = WarpGate(config, cache=cache)
    corpus = synthetic_corpus(N, DIM)
    refs = [ColumnRef("db", f"t{i // 16}", f"c{i % 16}") for i in range(N)]
    engine._index.bulk_load(refs, corpus)
    engine._indexed = True
    engine.rebuild_index()
    rng = np.random.default_rng(7)
    queries = []
    for position in range(POOL):
        vector = corpus[rng.integers(0, N)] + 0.15 * rng.standard_normal(DIM)
        query = ColumnRef("db", "queries", f"q{position}")
        cache.put(query, vector / np.linalg.norm(vector))
        queries.append(query)
    return engine, queries


def as_pairs(response) -> list[tuple[str, float]]:
    return [(str(candidate.ref), candidate.score) for candidate in response.candidates]


class TestQueryCoalescerUnit:
    def test_sequential_submits_take_the_fast_path(self):
        coalescer = QueryCoalescer(lambda batch: [f"ok:{r}" for r in batch])
        assert coalescer.submit("a") == "ok:a"
        assert coalescer.submit("b") == "ok:b"
        stats = coalescer.stats()
        assert stats["requests"] == 2
        assert stats["fastpath"] == 2
        assert stats["batches"] == 0

    def test_concurrent_submits_coalesce_into_batches(self):
        release = threading.Event()
        sizes: list[int] = []

        def execute(batch):
            release.wait(5)
            sizes.append(len(batch))
            return [f"ok:{r}" for r in batch]

        coalescer = QueryCoalescer(execute, max_batch=8, max_wait_us=0)
        with ThreadPoolExecutor(max_workers=9) as pool:
            futures = [pool.submit(coalescer.submit, f"r{i}") for i in range(9)]
            # The first submit is mid-fast-path (blocked on `release`);
            # the other eight are queued behind it.
            release.set()
            results = [future.result(timeout=10) for future in futures]
        assert sorted(results) == sorted(f"ok:r{i}" for i in range(9))
        stats = coalescer.stats()
        assert stats["requests"] == 9
        assert stats["coalesced_requests"] + stats["fastpath"] == 9
        assert stats["batches"] >= 1
        assert max(sizes) > 1  # real coalescing happened
        assert max(sizes) <= 8  # and max_batch held

    def test_fast_path_returns_without_serving_the_backlog(self):
        """The fast-path thread hands the queue off; it never drains it.

        The batch executor blocks on an event that is only set *after*
        the fast-path submit has returned — if the fast-path thread were
        responsible for draining the followers queued behind it (the
        starvation hazard), this test would deadlock.
        """
        first_running = threading.Event()
        release_first = threading.Event()
        release_batches = threading.Event()

        def execute(batch):
            if batch == ["first"]:
                first_running.set()
                release_first.wait(5)
            else:
                release_batches.wait(5)
            return [f"ok:{request}" for request in batch]

        coalescer = QueryCoalescer(execute, max_wait_us=0)
        with ThreadPoolExecutor(max_workers=5) as pool:
            fast = pool.submit(coalescer.submit, "first")
            assert first_running.wait(5)
            followers = [pool.submit(coalescer.submit, f"f{i}") for i in range(4)]
            release_first.set()
            # The fast-path result arrives while the followers' batches
            # are still blocked — proof it did not stay to serve them.
            assert fast.result(timeout=5) == "ok:first"
            assert not any(future.done() for future in followers)
            release_batches.set()
            assert sorted(f.result(timeout=5) for f in followers) == sorted(
                f"ok:f{i}" for i in range(4)
            )

    def test_per_request_errors_are_isolated(self):
        def execute(batch):
            return [
                ValueError(request) if request == "bad" else f"ok:{request}"
                for request in batch
            ]

        coalescer = QueryCoalescer(execute)
        assert coalescer.submit("good") == "ok:good"
        with pytest.raises(ValueError):
            coalescer.submit("bad")
        # The coalescer stays serviceable after an error outcome.
        assert coalescer.submit("good") == "ok:good"

    def test_executor_crash_fails_batch_but_not_coalescer(self):
        crash = {"armed": True}

        def execute(batch):
            if crash["armed"]:
                crash["armed"] = False
                raise RuntimeError("executor exploded")
            return [f"ok:{r}" for r in batch]

        coalescer = QueryCoalescer(execute)
        with pytest.raises(RuntimeError):
            coalescer.submit("first")
        assert coalescer.submit("second") == "ok:second"

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryCoalescer(lambda b: b, max_batch=0)
        with pytest.raises(ValueError):
            QueryCoalescer(lambda b: b, max_wait_us=-1)


class TestCoalescedParity:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_concurrent_coalesced_equals_sequential_search(self, variant):
        # Result cache off: every coalesced request must reach the real
        # batched probe, not be satisfied by the reference pass's entries.
        engine, queries = build_service(**VARIANTS[variant], query_cache_size=0)
        service = DiscoveryService(engine=engine)
        work = queries * 4
        # Sequential reference through the plain (uncoalesced) path on a
        # twin service sharing the same engine state via fresh probes.
        reference = {
            query: as_pairs(service.search(query, 5, threshold=FLOOR))
            for query in queries
        }
        barrier = threading.Barrier(16)

        def client(chunk):
            barrier.wait(timeout=10)
            return [
                (query, as_pairs(service.search_coalesced(query, 5, threshold=FLOOR)))
                for query in chunk
            ]

        chunks = [work[position::16] for position in range(16)]
        with ThreadPoolExecutor(max_workers=16) as pool:
            outcomes = [
                entry for future in [
                    pool.submit(client, chunk) for chunk in chunks
                ] for entry in future.result(timeout=60)
            ]
        assert len(outcomes) == len(work)
        for query, got in outcomes:
            want = reference[query]
            assert [ref for ref, _score in got] == [ref for ref, _score in want]
            # Batched probes score via one GEMM, single probes via a
            # gathered matvec — equal to float32 precision (the index
            # layer's documented batch contract).
            for (_r1, got_score), (_r2, want_score) in zip(got, want):
                assert got_score == pytest.approx(want_score, abs=1e-6)

    def test_unknown_query_fails_alone_in_a_concurrent_batch(self):
        engine, queries = build_service()
        service = DiscoveryService(engine=engine)
        ghost = ColumnRef("db", "ghost", "col")
        barrier = threading.Barrier(9)

        def good(query):
            barrier.wait(timeout=10)
            return service.search_coalesced(query, 5, threshold=FLOOR)

        def bad():
            barrier.wait(timeout=10)
            with pytest.raises(ServiceError) as excinfo:
                service.search_coalesced(ghost, 5, threshold=FLOOR)
            return excinfo.value.code

        with ThreadPoolExecutor(max_workers=9) as pool:
            good_futures = [pool.submit(good, query) for query in queries[:8]]
            bad_future = pool.submit(bad)
            assert bad_future.result(timeout=30) in ("not_found", "not_indexed")
            for future in good_futures:
                assert len(future.result(timeout=30).candidates) > 0


def tiny_table(name: str, salt: int) -> Table:
    """A small, deterministic table whose text column actually embeds."""
    words = ["alpha", "beta", "gamma", "delta", "omega", "sigma"]
    values = [f"{words[(salt + i) % 6]} {words[(salt + 2 * i) % 6]}" for i in range(4)]
    return Table(
        name,
        [
            Column("label", values),
            Column("amount", [salt + i for i in range(4)]),
        ],
    )


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "drop", "refresh", "search"]),
                  st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=8,
    )
)
def test_coalesced_search_matches_engine_under_churn(ops):
    """Interleaved mutations never desynchronize the coalesced path.

    After every operation, a coalesced search must equal the library
    engine's own (uncached) pipeline — if the query cache ever served a
    result from before the latest mutation, or the coalescer reordered
    semantics, the two would diverge.
    """
    warehouse = Warehouse("churn")
    warehouse.add_table("db", tiny_table("base", 0))
    config = WarpGateConfig(model_name="hashing", dim=16, threshold=0.0)
    service = DiscoveryService(config)
    service.open(WarehouseConnector(warehouse))
    query = ColumnRef("db", "base", "label")

    def check():
        got = service.search_coalesced(query, 5)
        want = service.engine.search(query, 5)
        assert [str(c.ref) for c in got.candidates] == [
            str(c.ref) for c in want.candidates
        ]
        for mine, theirs in zip(got.candidates, want.candidates):
            assert mine.score == pytest.approx(theirs.score, abs=1e-6)

    for action, slot in ops:
        name = f"table_{slot}"
        if action == "add":
            service.add_table("db", tiny_table(name, slot + 1))
        elif action == "drop":
            if any(
                ref.table_key == ("db", name) for ref in service.engine.indexed_refs
            ):
                service.drop_table("db", name)
        elif action == "refresh":
            service.refresh_column(query)
        check()


class TestCoalescerDeadlines:
    """Deadline enforcement at the coalescer's three boundaries."""

    def test_pre_expired_submit_raises_without_executing(self):
        executed = []

        def execute(batch):
            executed.append(batch)
            return list(batch)

        coalescer = QueryCoalescer(
            execute, deadline_of=lambda request: time.monotonic() - 0.1
        )
        with pytest.raises(DeadlineExceededError) as info:
            coalescer.submit("doomed")
        assert info.value.overrun_s >= 0.1
        assert executed == []  # never reached the executor
        assert coalescer.stats()["requests"] == 0

    def test_no_deadline_requests_unaffected(self):
        coalescer = QueryCoalescer(
            lambda batch: [f"ok:{r}" for r in batch],
            deadline_of=lambda request: None,
        )
        assert coalescer.submit("a") == "ok:a"
        stats = coalescer.stats()
        assert stats["urgent"] == 0 and stats["expired"] == 0

    def test_tight_budget_takes_urgent_path_while_busy(self):
        """A near-deadline arrival during an in-flight execution runs
        alone immediately instead of queueing behind the batch."""
        release = threading.Event()
        started = threading.Event()

        def execute(batch):
            return [f"batched:{r}" for r in batch]

        def execute_one(request):
            # The fast path routes through execute_one; blocking "slow"
            # here keeps the coalescer owned while "urgent" arrives.
            if request == "slow":
                started.set()
                release.wait(timeout=5)
            return f"solo:{request}"

        deadlines = {"urgent": time.monotonic() + 10.0}

        def deadline_of(request):
            # Re-anchor the urgent request's deadline lazily so the
            # remaining budget is tiny at decision time, generous before.
            if request == "urgent":
                return time.monotonic() + 100e-6
            return deadlines.get(request)

        coalescer = QueryCoalescer(
            execute,
            execute_one=execute_one,
            max_wait_us=5_000,
            deadline_of=deadline_of,
        )
        with ThreadPoolExecutor(max_workers=2) as pool:
            slow = pool.submit(coalescer.submit, "slow")  # fast path, blocks
            assert started.wait(timeout=5)
            # Budget (100us) < wait window (5000us): must not queue.
            result = coalescer.submit("urgent")
            assert result == "solo:urgent"
            assert not slow.done()  # returned while the batch still ran
            release.set()
            assert slow.result(timeout=5) == "solo:slow"
        assert coalescer.stats()["urgent"] == 1

    def test_expired_in_queue_resolved_without_executor(self):
        """An entry whose deadline passes while it waits in the queue is
        answered with the deadline error at batch-snap time; the
        executor never sees it."""
        release = threading.Event()
        started = threading.Event()
        seen: list[object] = []

        def execute(batch):
            seen.extend(batch)
            started.set()
            release.wait(timeout=5)
            return list(batch)

        deadlines = {"short": 0.15, "long": 30.0}
        anchors: dict[object, float] = {}

        def deadline_of(request):
            # Anchor each request's absolute deadline at first sight.
            if request not in anchors:
                anchors[request] = time.monotonic() + deadlines[request]
            return anchors[request]

        coalescer = QueryCoalescer(execute, deadline_of=deadline_of)
        with ThreadPoolExecutor(max_workers=3) as pool:
            blocker = pool.submit(coalescer.submit, "long")  # fast path
            assert started.wait(timeout=5)
            doomed = pool.submit(coalescer.submit, "short")  # queues
            time.sleep(0.3)  # "short" expires while queued
            release.set()
            blocker.result(timeout=5)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5)
        assert "short" not in seen
        stats = coalescer.stats()
        assert stats["expired"] == 1
        assert stats["batches"] == 0  # the snapped batch was all-expired
