"""Query-result cache: generation keying makes staleness unrepresentable.

The acceptance property: a result cached under one index mutation
generation is never served once *any* mutation (add / remove / update /
compaction / adoption) has happened — because the generation is part of
the key, not because anyone remembered to invalidate.  The hypothesis
test drives hundreds of random mutation/query interleavings against all
three backends and checks every cache hit against a fresh probe.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import rng_for
from repro.core.config import WarpGateConfig
from repro.index.exact import ExactCosineIndex
from repro.index.lsh import SimHashLSHIndex
from repro.index.pivot import PivotFilterIndex
from repro.service import DiscoveryService, QueryResultCache
from repro.storage.column import Column
from repro.storage.schema import ColumnRef
from repro.storage.table import Table
from repro.warehouse.catalog import Warehouse
from repro.warehouse.connector import WarehouseConnector

DIM = 8
K = 4
FLOOR = -1.0

#: A fixed pool of distinct unit vectors the property test draws from.
_rng = rng_for("qcache-tests", "pool", DIM)
_POOL = _rng.standard_normal((16, DIM))
_POOL /= np.linalg.norm(_POOL, axis=1, keepdims=True)


class TestQueryResultCacheUnit:
    def test_key_embeds_every_probe_parameter(self):
        vector = _POOL[0]
        base = QueryResultCache.key(vector, 5, 0.5, None, 3)
        assert QueryResultCache.key(vector, 5, 0.5, None, 3) == base
        assert QueryResultCache.key(vector, 6, 0.5, None, 3) != base
        assert QueryResultCache.key(vector, 5, 0.4, None, 3) != base
        assert QueryResultCache.key(vector, 5, 0.5, "db.t.c", 3) != base
        assert QueryResultCache.key(vector, 5, 0.5, None, 4) != base
        assert QueryResultCache.key(_POOL[1], 5, 0.5, None, 3) != base

    def test_key_is_dtype_canonical(self):
        vector = _POOL[0]
        assert QueryResultCache.key(
            vector.astype(np.float32).astype(np.float64), 5, 0.5, None, 3
        ) == QueryResultCache.key(
            np.asarray(vector.astype(np.float32), dtype=np.float64), 5, 0.5, None, 3
        )

    def test_round_trip_freezes_candidates(self):
        cache = QueryResultCache(4)
        key = QueryResultCache.key(_POOL[0], K, FLOOR, None, 0)
        cache.put(key, [("a", 0.9), ("b", 0.8)])
        assert cache.get(key) == (("a", 0.9), ("b", 0.8))
        assert cache.stats()["hits"] == 1

    def test_lru_eviction_is_bounded(self):
        cache = QueryResultCache(2)
        keys = [QueryResultCache.key(_POOL[i], K, FLOOR, None, 0) for i in range(3)]
        for position, key in enumerate(keys):
            cache.put(key, [(f"k{position}", 1.0)])
        assert len(cache) == 2
        assert cache.get(keys[0]) is None  # evicted
        assert cache.get(keys[2]) is not None

    def test_disabled_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryResultCache(0)


def _make_index(backend: str):
    if backend == "lsh":
        return SimHashLSHIndex(DIM, n_bits=32, n_bands=8, threshold=FLOOR)
    if backend == "exact":
        return ExactCosineIndex(DIM)
    return PivotFilterIndex(DIM, threshold=FLOOR)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "del", "query"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=600, deadline=None)
@given(ops=_OPS, backend=st.sampled_from(["lsh", "exact", "pivot"]))
def test_generation_keyed_hits_always_equal_fresh_probes(ops, backend):
    """A cache hit is byte-equal to re-probing; staleness cannot hit.

    Every query consults the cache under the *current*
    ``mutation_generation`` and cross-checks any hit against a fresh
    index probe.  If some mutation path failed to move the generation,
    an old entry would hit with outdated candidates and the comparison
    would fail.  600 randomized histories across the three backends,
    each with up to 14 interleaved mutations/queries.
    """
    index = _make_index(backend)
    cache = QueryResultCache(64)
    for action, slot, other in ops:
        if action == "set":
            index.update(slot, _POOL[other])
        elif action == "del":
            if slot in index:
                index.remove(slot)
        else:
            if len(index) == 0:
                continue
            vector = _POOL[other]
            key = QueryResultCache.key(
                vector, K, FLOOR, None, index.mutation_generation
            )
            fresh = [
                (ref, float(score))
                for ref, score in index.query(vector, K, threshold=FLOOR)
            ]
            cached = cache.get(key)
            if cached is not None:
                assert list(cached) == fresh
            cache.put(key, fresh)


@settings(max_examples=60, deadline=None)
@given(
    removals=st.sets(st.integers(min_value=0, max_value=47), min_size=13, max_size=40)
)
def test_compaction_moves_the_generation(removals):
    """Tombstone-threshold compactions invalidate like any other mutation."""
    index = ExactCosineIndex(DIM)
    rng = rng_for("qcache-tests", "compaction", DIM)
    matrix = rng.standard_normal((48, DIM))
    index.bulk_load(list(range(48)), matrix)
    before = index.mutation_generation
    survivors = 48 - len(removals)
    for key in removals:
        index.remove(key)
    # >25% of 48 rows died: at least one compaction fired along the way.
    assert index.arena.generation >= 1
    assert index.mutation_generation >= before + len(removals) + 1
    # And the arena still answers correctly for the survivors.
    assert len(index) == survivors


class TestServiceLevelInvalidation:
    def make_service(self) -> tuple[DiscoveryService, ColumnRef]:
        warehouse = Warehouse("qcache")
        companies = ["acme corp", "globex inc", "initech llc", "umbrella co"]
        warehouse.add_table(
            "db",
            Table(
                "customers",
                [Column("id", [1, 2, 3, 4]), Column("company", companies)],
            ),
        )
        warehouse.add_table(
            "db",
            Table(
                "vendors",
                [Column("vid", [9, 8, 7, 6]), Column("vendor", companies)],
            ),
        )
        config = WarpGateConfig(model_name="hashing", dim=16, threshold=0.0)
        service = DiscoveryService(config)
        service.open(WarehouseConnector(warehouse))
        return service, ColumnRef("db", "customers", "company")

    def test_mutation_invalidates_cached_search(self):
        service, query = self.make_service()
        first = service.search(query, 8)
        repeat = service.search(query, 8)
        assert [str(c.ref) for c in repeat.candidates] == [
            str(c.ref) for c in first.candidates
        ]
        assert service.query_cache.stats()["hits"] >= 1
        # Mutate: add a joinable table; the next search must see it
        # without any explicit cache invalidation having been called.
        service.add_table(
            "db",
            Table(
                "suppliers",
                [
                    Column("sid", [11, 12, 13, 14]),
                    Column(
                        "supplier",
                        ["acme corp", "globex inc", "initech llc", "umbrella co"],
                    ),
                ],
            ),
        )
        after = service.search(query, 8)
        refs = [str(c.ref) for c in after.candidates]
        assert "db.suppliers.supplier" in refs
        # And dropping it disappears it again, through the same mechanism.
        service.drop_table("db", "suppliers")
        final = service.search(query, 8)
        assert "db.suppliers.supplier" not in [str(c.ref) for c in final.candidates]

    def test_cache_disabled_service_still_serves(self):
        warehouse = Warehouse("nocache")
        warehouse.add_table(
            "db",
            Table(
                "t",
                [Column("a", [1, 2, 3]), Column("b", ["x y", "y z", "z x"])],
            ),
        )
        config = WarpGateConfig(
            model_name="hashing", dim=16, threshold=0.0, query_cache_size=0
        )
        service = DiscoveryService(config)
        service.open(WarehouseConnector(warehouse))
        assert service.query_cache is None
        response = service.search(ColumnRef("db", "t", "b"), 3)
        assert "query_cache" not in service.stats().caches
        assert response is not None
