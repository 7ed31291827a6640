"""Tests for repro.index.arena: the shared columnar vector store."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import rng_for
from repro.errors import DimensionMismatchError
from repro.index.arena import VectorArena
from repro.index.exact import ExactCosineIndex
from repro.index.lsh import SimHashLSHIndex
from repro.index.pivot import PivotFilterIndex

DIM = 16


def unit(seed: int, dim: int = DIM) -> np.ndarray:
    vector = rng_for("arena-test", seed).standard_normal(dim)
    return vector / np.linalg.norm(vector)


def make_arena(**kwargs) -> VectorArena:
    return VectorArena(DIM, **kwargs)


class TestConstruction:
    def test_dim_validated(self):
        with pytest.raises(ValueError):
            VectorArena(0)

    def test_signature_words_validated(self):
        with pytest.raises(ValueError):
            VectorArena(DIM, signature_words=-1)

    def test_repr(self):
        assert "VectorArena" in repr(make_arena())

    def test_signatures_absent_without_words(self):
        with pytest.raises(ValueError):
            _ = make_arena().signatures


class TestAdd:
    def test_rows_are_float32_units(self):
        arena = make_arena()
        arena.add("a", 5.0 * unit(1))
        stored = arena.vector_of("a")
        assert stored.dtype == np.float32
        assert np.linalg.norm(stored) == pytest.approx(1.0)

    def test_row_ids_are_sequential(self):
        arena = make_arena()
        assert arena.add("a", unit(1)) == 0
        assert arena.add("b", unit(2)) == 1

    def test_duplicate_key_rejected(self):
        arena = make_arena()
        arena.add("a", unit(1))
        with pytest.raises(ValueError):
            arena.add("a", unit(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            make_arena().add("z", np.zeros(DIM))

    def test_wrong_length_raises_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_arena().add("a", np.ones(DIM + 1))

    def test_wrong_ndim_raises_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_arena().add("a", np.ones((4, 4)))

    def test_growth_beyond_initial_capacity(self):
        arena = make_arena(initial_capacity=2)
        for position in range(65):
            arena.add(position, unit(position))
        assert len(arena) == 65
        assert arena.keys() == list(range(65))
        assert np.allclose(arena.vector_of(40), unit(40), atol=1e-6)

    def test_signature_required_when_stored(self):
        arena = make_arena(signature_words=2)
        with pytest.raises(ValueError):
            arena.add("a", unit(1))

    def test_signature_shape_enforced(self):
        arena = make_arena(signature_words=2)
        with pytest.raises(DimensionMismatchError):
            arena.add("a", unit(1), np.zeros(3, dtype=np.uint64))

    def test_signature_stored(self):
        arena = make_arena(signature_words=2)
        arena.add("a", unit(1), np.array([7, 9], dtype=np.uint64))
        assert arena.signatures[0].tolist() == [7, 9]


class TestAddBatch:
    def test_batch_matches_single_adds(self):
        single = make_arena()
        batch = make_arena()
        matrix = np.stack([unit(seed) for seed in range(10)])
        for seed in range(10):
            single.add(seed, matrix[seed])
        batch.add_batch(list(range(10)), matrix)
        assert np.array_equal(single.matrix, batch.matrix)
        assert single.keys() == batch.keys()

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            make_arena().add_batch(["a", "a"], np.stack([unit(1), unit(2)]))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_arena().add_batch(["a"], np.stack([unit(1), unit(2)]))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            make_arena().add_batch(["a", "b"], np.stack([unit(1), np.zeros(DIM)]))


class TestTombstones:
    def test_remove_is_a_tombstone(self):
        arena = make_arena()
        for position in range(4):
            arena.add(position, unit(position))
        arena.remove(1)
        assert len(arena) == 3
        assert 1 not in arena
        assert arena.size == 4  # the slot is still occupied, just dead
        assert arena.dead_count == 1
        assert not arena.alive[1]

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            make_arena().remove("ghost")

    def test_keys_skip_dead_rows(self):
        arena = make_arena()
        for position in range(5):
            arena.add(position, unit(position))
        arena.remove(2)
        assert arena.keys() == [0, 1, 3, 4]

    def test_threshold_triggers_compaction(self):
        arena = make_arena()
        for position in range(40):
            arena.add(position, unit(position))
        generation = arena.generation
        # At or below the 25% dead-fraction threshold: no compaction yet.
        for victim in range(10):
            assert arena.remove(victim) is False
        assert arena.generation == generation
        # Strictly crossing it compacts.
        assert arena.remove(10) is True
        assert arena.generation == generation + 1
        assert arena.dead_count == 0
        assert arena.size == len(arena) == 29

    def test_compaction_preserves_order_and_content(self):
        arena = make_arena()
        for position in range(40):
            arena.add(position, unit(position))
        for victim in (3, 17, 5, 30, 12, 0, 39, 21, 8, 9):
            arena.remove(victim)
        survivors = arena.keys()
        assert survivors == sorted(survivors)  # insertion order preserved
        for key in survivors:
            assert np.allclose(arena.vector_of(key), unit(key), atol=1e-6)
            assert arena.key_at(arena.row_of(key)) == key

    def test_explicit_compact_is_idempotent(self):
        arena = make_arena()
        for position in range(8):
            arena.add(position, unit(position))
        arena.remove(4)
        arena.compact()
        generation = arena.generation
        arena.compact()  # nothing dead: no-op, no generation bump
        assert arena.generation == generation

    def test_add_after_compaction_reuses_space(self):
        arena = make_arena(initial_capacity=64)
        for position in range(40):
            arena.add(position, unit(position))
        for victim in range(20):
            arena.remove(victim)
        row = arena.add("fresh", unit(99))
        assert row == arena.size - 1
        assert arena.key_at(row) == "fresh"


BACKENDS = {
    "lsh": lambda: SimHashLSHIndex(DIM, n_bits=64, n_bands=16),
    "exact": lambda: ExactCosineIndex(DIM),
    "pivot": lambda: PivotFilterIndex(DIM),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestCanonicalValidation:
    """Satellite: one canonical error surface across all three backends."""

    def test_add_wrong_length(self, backend):
        with pytest.raises(DimensionMismatchError):
            BACKENDS[backend]().add("a", np.ones(DIM + 3))

    def test_add_wrong_ndim(self, backend):
        with pytest.raises(DimensionMismatchError):
            BACKENDS[backend]().add("a", np.ones((2, DIM)))

    def test_query_wrong_shape(self, backend):
        index = BACKENDS[backend]()
        index.add("a", unit(1))
        with pytest.raises(DimensionMismatchError):
            index.query(np.ones(DIM - 1), 1)

    def test_search_batch_wrong_shape(self, backend):
        index = BACKENDS[backend]()
        index.add("a", unit(1))
        with pytest.raises(DimensionMismatchError):
            index.search_batch(np.ones((2, DIM + 1)), 1)

    def test_zero_vector_value_error(self, backend):
        with pytest.raises(ValueError):
            BACKENDS[backend]().add("z", np.zeros(DIM))

    def test_shared_arena_substrate(self, backend):
        index = BACKENDS[backend]()
        index.add("a", unit(1))
        assert isinstance(index.arena, VectorArena)
        assert index.arena.matrix.dtype == np.float32


class TestMutationGeneration:
    """The monotonic content-mutation counter result caches key on."""

    def test_every_mutation_path_moves_it(self):
        arena = make_arena()
        assert arena.mutation_generation == 0
        arena.add("a", unit(1))
        g1 = arena.mutation_generation
        assert g1 > 0
        arena.add_batch(["b", "c"], np.stack([unit(2), unit(3)]))
        g2 = arena.mutation_generation
        assert g2 > g1
        arena.remove("b")
        g3 = arena.mutation_generation
        assert g3 > g2
        arena.compact()
        assert arena.mutation_generation > g3

    def test_columnar_index_exposes_it(self):
        for index in (
            ExactCosineIndex(DIM),
            SimHashLSHIndex(DIM, n_bits=32, n_bands=8),
            PivotFilterIndex(DIM),
        ):
            assert index.mutation_generation == 0
            index.add("a", unit(1))
            after_add = index.mutation_generation
            assert after_add > 0
            index.update("a", unit(2))  # remove + add: moves at least once
            assert index.mutation_generation > after_add

    def test_compaction_threshold_churn_keeps_counting(self):
        arena = make_arena()
        keys = list(range(64))
        arena.add_batch(keys, np.stack([unit(k) for k in keys]))
        before = arena.mutation_generation
        removed = 0
        for key in range(0, 64, 2):
            arena.remove(key)
            removed += 1
        # 32 removals out of 64 rows crossed the 25% dead threshold at
        # least once, so compactions added their own bumps on top.
        assert arena.mutation_generation > before + removed
