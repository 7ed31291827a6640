"""Tests for repro.index.lsh (SimHash LSH with exact re-ranking)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import rng_for
from repro.errors import DimensionMismatchError, EmptyIndexError
from repro.index.exact import ExactCosineIndex
from repro.index.lsh import SimHashLSHIndex


def random_unit(dim: int, key: str) -> np.ndarray:
    vector = rng_for("lsh-test", key).standard_normal(dim)
    return vector / np.linalg.norm(vector)


class TestConstruction:
    def test_bands_must_divide_bits(self):
        with pytest.raises(ValueError):
            SimHashLSHIndex(8, n_bits=100, n_bands=16)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            SimHashLSHIndex(8, threshold=2.0)

    def test_repr(self):
        index = SimHashLSHIndex(8)
        assert "SimHashLSHIndex" in repr(index)


class TestAdd:
    def test_len_grows(self):
        index = SimHashLSHIndex(8)
        index.add("a", random_unit(8, "a"))
        assert len(index) == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            SimHashLSHIndex(8).add("z", np.zeros(8))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SimHashLSHIndex(8).add("a", np.ones(9))

    def test_add_many(self):
        index = SimHashLSHIndex(8)
        index.add_many([("a", random_unit(8, "a")), ("b", random_unit(8, "b"))])
        assert len(index) == 2


class TestQuery:
    def test_empty_index_raises(self):
        with pytest.raises(EmptyIndexError):
            SimHashLSHIndex(8).query(np.ones(8), 5)

    def test_bad_k_rejected(self):
        index = SimHashLSHIndex(8)
        index.add("a", random_unit(8, "a"))
        with pytest.raises(ValueError):
            index.query(np.ones(8), 0)

    def test_finds_exact_duplicate(self):
        index = SimHashLSHIndex(16, threshold=0.5)
        vector = random_unit(16, "x")
        index.add("x", vector)
        results = index.query(vector, 1)
        assert results == [("x", pytest.approx(1.0))]

    def test_exclude_key(self):
        index = SimHashLSHIndex(16, threshold=0.5)
        vector = random_unit(16, "x")
        index.add("x", vector)
        index.add("y", vector)
        results = index.query(vector, 5, exclude="x")
        assert [key for key, _ in results] == ["y"]

    def test_threshold_filters(self):
        index = SimHashLSHIndex(16, threshold=0.99)
        base = random_unit(16, "base")
        drift = base + 0.5 * random_unit(16, "drift")
        drift /= np.linalg.norm(drift)
        index.add("far", drift)
        assert index.query(base, 5) == []

    def test_override_threshold(self):
        index = SimHashLSHIndex(16, threshold=0.99)
        base = random_unit(16, "base")
        drift = base + 0.3 * random_unit(16, "drift2")
        drift /= np.linalg.norm(drift)
        index.add("near", drift)
        assert index.query(base, 5, threshold=0.5) != []

    def test_zero_query_returns_empty(self):
        index = SimHashLSHIndex(8)
        index.add("a", random_unit(8, "a"))
        assert index.query(np.zeros(8), 3) == []

    def test_ranked_descending(self):
        index = SimHashLSHIndex(16, threshold=-1.0, n_bands=64, n_bits=128)
        base = random_unit(16, "base")
        for key, noise in (("close", 0.1), ("mid", 0.4), ("far", 1.0)):
            vector = base + noise * random_unit(16, key)
            index.add(key, vector / np.linalg.norm(vector))
        results = index.query(base, 3)
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)
        assert results[0][0] == "close"

    def test_candidate_count_tracked(self):
        index = SimHashLSHIndex(16, threshold=0.0)
        vector = random_unit(16, "v")
        index.add("v", vector)
        index.query(vector, 1)
        assert index.last_candidate_count >= 1

    def test_candidate_count_is_the_live_bucket_union_not_the_above_floor_rows(self):
        """``query`` and ``search_batch`` both report it (both scoring plans:
        ``test_index_select.py``)."""
        matrix = np.stack([random_unit(16, key) for key in range(200)])
        index = SimHashLSHIndex(16, n_bits=32, n_bands=8, threshold=0.95)
        index.bulk_load(list(range(200)), matrix)
        for key in range(30):
            index.remove(key)
        queries = matrix[100:103]
        wanted = []
        for query in queries:
            shares_band = np.any(
                index.arena.signatures == index._signature_for(query), axis=1
            )
            wanted.append(int(np.count_nonzero(shares_band & index.arena.alive)))
        # The floor keeps one row per query; the union holds many more, and
        # is neither empty nor the whole index.
        assert all(1 < count < 170 for count in wanted)
        for query, count in zip(queries, wanted):
            assert len(index.query(query, 5)) == 1
            assert index.last_candidate_count == count
        for block in range(1, 4):  # a batch leaves its last query's count
            index.search_batch(queries[:block], 5)
            assert index.last_candidate_count == wanted[block - 1]


class TestRecallAgainstExact:
    def test_high_recall_on_near_neighbors(self):
        """LSH must retrieve nearly all candidates above its threshold."""
        dim, n_points = 32, 300
        lsh = SimHashLSHIndex(dim, n_bits=128, n_bands=32, threshold=0.8)
        exact = ExactCosineIndex(dim)
        rng = rng_for("lsh-recall")
        base = rng.standard_normal(dim)
        base /= np.linalg.norm(base)
        for point in range(n_points):
            noise = 0.05 + 1.5 * (point / n_points)
            vector = base + noise * rng.standard_normal(dim)
            vector /= np.linalg.norm(vector)
            lsh.add(point, vector)
            exact.add(point, vector)
        expected = {key for key, _ in exact.query(base, 50, threshold=0.8)}
        got = {key for key, _ in lsh.query(base, 50)}
        if expected:
            recall = len(expected & got) / len(expected)
            assert recall >= 0.9

    def test_scores_match_exact_cosine(self):
        """Re-ranking uses true cosine, not the hash estimate."""
        dim = 16
        lsh = SimHashLSHIndex(dim, threshold=-1.0)
        base = random_unit(dim, "q")
        near = base + 0.2 * random_unit(dim, "n")
        near /= np.linalg.norm(near)
        lsh.add("near", near)
        results = dict(lsh.query(base, 1))
        # float32 arena storage bounds score precision at ~1e-7 relative.
        assert results["near"] == pytest.approx(float(base @ near), abs=1e-6)


class TestExpectedCandidateRate:
    def test_monotone_in_similarity(self):
        index = SimHashLSHIndex(16)
        rates = [index.expected_candidate_rate(c) for c in (0.0, 0.5, 0.9, 0.99)]
        assert rates == sorted(rates)

    def test_bounds(self):
        index = SimHashLSHIndex(16)
        assert 0.0 <= index.expected_candidate_rate(0.0) <= 1.0
        assert index.expected_candidate_rate(1.0) == pytest.approx(1.0)
