"""The index read path: one top-k kernel, two scoring plans, one batch path.

Three contracts are pinned here:

* ``select_topk`` — the only top-k cut under ``repro.index`` — keeps the
  ``limit`` largest scores *and every boundary tie*, so ``_assemble``
  ranks exactly like a naive full ``sorted(key=(-score, str(key)))``,
  exclusion included;
* the dense plan (score the whole arena, mask the scores) and the
  gathered plan (gather the candidates, score those) of ``query`` answer
  identically, and both equal brute-force cosine ∧ "shares a band with
  the query", with tombstones present and again after a compaction;
* ``search_batch`` equals per-row ``query`` on every backend at block
  sizes on both sides of the GEMM orientation switch, with per-query
  excludes and at ``threshold=-1``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import rng_for
from repro.index import arena as arena_module
from repro.index.arena import select_topk
from repro.index.exact import ExactCosineIndex
from repro.index.lsh import SimHashLSHIndex
from repro.index.pivot import PivotFilterIndex

DIM = 24
BACKENDS = ["lsh", "exact", "pivot"]

# Few distinct values, so any cut lands inside a run of exact ties.
tied_scores = st.lists(
    st.sampled_from([-1.0, -0.25, 0.0, 0.5, 0.7, 0.7000000476837158, 1.0]),
    min_size=0,
    max_size=40,
)


def cloud(n: int, key: object) -> np.ndarray:
    matrix = rng_for("select-test", key).standard_normal((n, DIM))
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def make_index(backend: str, threshold: float = 0.2):
    if backend == "lsh":
        return SimHashLSHIndex(DIM, n_bits=64, n_bands=32, threshold=threshold)
    if backend == "exact":
        return ExactCosineIndex(DIM)
    return PivotFilterIndex(DIM, n_pivots=5, threshold=threshold)


def naive_rank(pairs, k, exclude=None):
    kept = [pair for pair in pairs if exclude is None or pair[0] != exclude]
    return sorted(kept, key=lambda pair: (-pair[1], str(pair[0])))[:k]


def assert_same_answer(got, want):
    assert [key for key, _ in got] == [key for key, _ in want]
    assert [score for _, score in got] == pytest.approx(
        [score for _, score in want], abs=1e-6
    )


class TestSelectionKernel:
    @given(scores=tied_scores, limit=st.integers(1, 45))
    @settings(max_examples=200, deadline=None)
    def test_keeps_the_top_limit_and_every_boundary_tie(self, scores, limit):
        array = np.asarray(scores, dtype=np.float32)
        positions = select_topk(array, limit).tolist()
        if len(scores) <= limit:
            assert positions == list(range(len(scores)))
            return
        boundary = sorted(array.tolist(), reverse=True)[limit - 1]
        assert positions == [
            position for position, score in enumerate(array.tolist()) if score >= boundary
        ]

    @given(
        scores=tied_scores.filter(bool),
        k=st.integers(1, 45),
        exclude=st.one_of(st.none(), st.integers(0, 39)),
    )
    @settings(max_examples=200, deadline=None)
    def test_assemble_equals_a_full_sort(self, scores, k, exclude):
        """``exclude`` may be absent from the rows, or tied with the boundary."""
        index = ExactCosineIndex(DIM)
        # Integer keys: str order ("10" < "9") disagrees with row order.
        index.bulk_load(list(range(len(scores))), cloud(len(scores), "assemble"))
        array = np.asarray(scores, dtype=np.float32)
        got = index._assemble(np.arange(array.size), array, k, exclude)
        assert got == naive_rank(list(enumerate(array.tolist())), k, exclude)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        copies=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        k=st.integers(1, 40),
        exclude=st.one_of(st.none(), st.integers(0, 35)),
        floor=st.sampled_from([-1.0, 0.3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_duplicated_vectors_rank_like_a_full_sort(
        self, backend, copies, k, exclude, floor
    ):
        """Whole-query check: duplicates tie exactly, ``k`` may exceed the rows,
        one distinct vector makes every score equal."""
        distinct = cloud(len(copies), "duplicates")
        matrix = np.repeat(distinct, copies, axis=0)
        index = make_index(backend)
        index.bulk_load(list(range(len(matrix))), matrix)
        unit = index.arena.coerce_unit(distinct[0])
        scores = index.arena.matrix @ unit
        mask = index._candidate_mask(unit, floor) & (scores >= floor)
        want = naive_rank(
            [(row, float(scores[row])) for row in np.flatnonzero(mask)], k, exclude
        )
        got = index.query(distinct[0], k, threshold=floor, exclude=exclude)
        assert_same_answer(got, want)


class TestPlanParity:
    """Dense and gathered plans of one LSH index give one answer."""

    @staticmethod
    def reference(index, vector, k, floor, exclude):
        """Brute-force cosine ∧ shares-a-band, over the live rows."""
        arena = index.arena
        unit = arena.coerce_unit(vector)
        shares_band = np.any(arena.signatures == index._signature_for(unit), axis=1)
        candidates = np.flatnonzero(shares_band & arena.alive)
        pairs = [(arena.key_at(row), float(arena.matrix[row] @ unit)) for row in candidates]
        above = [pair for pair in pairs if pair[1] >= floor]
        return naive_rank(above, k, exclude), len(candidates)

    def check_both_plans(self, index, queries, monkeypatch):
        for position, vector in enumerate(queries):
            want, n_candidates = self.reference(index, vector, 7, 0.2, position)
            answers = []
            for fraction in (0.0, 2.0):  # always dense, never dense
                monkeypatch.setattr(arena_module, "_DENSE_PLAN_FRACTION", fraction)
                answers.append(index.query(vector, 7, exclude=position))
                assert index.last_candidate_count == n_candidates
            assert_same_answer(answers[0], answers[1])
            assert_same_answer(answers[0], want)

    def test_with_tombstones_and_after_compaction(self, monkeypatch):
        points = cloud(320, "plans")
        queries = cloud(24, "plans-queries") * 0.6 + points[:24] * 0.8
        # Coarse banding: the bucket union is a strict subset of the arena.
        index = SimHashLSHIndex(DIM, n_bits=64, n_bands=16, threshold=0.2)
        index.bulk_load(list(range(320)), points)
        for key in range(40, 100):  # 60 of 320 dead: below the 25% trigger
            index.remove(key)
        generation = index.arena.generation
        assert index.arena.dead_count == 60
        self.check_both_plans(index, queries, monkeypatch)
        for key in range(100, 140):  # crosses it: rows are renumbered
            index.remove(key)
        assert index.arena.generation > generation and index.arena.dead_count < 40
        self.check_both_plans(index, queries, monkeypatch)


def loaded(backend: str):
    """A loaded (index, points) pair of one backend, with tombstones."""
    points = cloud(160, f"variant-{backend}")
    index = make_index(backend)
    index.bulk_load(list(range(160)), points)
    for key in range(20, 40):
        index.remove(key)
    index.build()
    return index, points


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchEqualsPerRowQuery:
    @pytest.mark.parametrize("block", [1, 2, 8, 32])
    def test_with_per_query_excludes(self, backend, block):
        index, points = loaded(backend)
        sources = [key for key in range(160) if key not in range(20, 40)][:block]
        queries = points[sources] * 0.9 + cloud(block, ("noise", block)) * 0.3
        batch = index.search_batch(queries, 6, excludes=sources)
        assert len(batch) == block
        for vector, source, got in zip(queries, sources, batch):
            assert source not in [key for key, _ in got]
            assert_same_answer(got, index.query(vector, 6, exclude=source))

    def test_permissive_floor(self, backend):
        """``threshold=-1``: every candidate clears the floor (on the exact
        backend, every live row of every query — the old pair expansion's
        O(q·n) case)."""
        index, points = loaded(backend)
        queries = cloud(8, "permissive")
        batch = index.search_batch(queries, 150, threshold=-1.0)
        for vector, got in zip(queries, batch):
            assert_same_answer(got, index.query(vector, 150, threshold=-1.0))
        if backend == "exact":
            assert all(len(got) == 140 for got in batch)
