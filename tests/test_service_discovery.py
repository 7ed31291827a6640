"""Tests for repro.service: the DiscoveryService serving facade."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import WarpGateConfig
from repro.core.lookup import LookupService
from repro.service import (
    DiscoveryService,
    IndexStats,
    SearchRequest,
    SearchResponse,
    ServiceError,
)
from repro.storage.column import Column
from repro.storage.schema import ColumnRef
from repro.storage.table import Table
from repro.warehouse.connector import WarehouseConnector


def company_ref() -> ColumnRef:
    return ColumnRef("db", "customers", "company")


def vendor_ref() -> ColumnRef:
    return ColumnRef("db", "vendors", "vendor_name")


def suppliers_table() -> Table:
    return Table(
        "suppliers",
        [
            Column("supplier_id", [100, 101, 102]),
            Column(
                "supplier_name",
                ["Acme Dynamics Corp", "Vertex Energy Group", "Nova Analytics Llc"],
            ),
        ],
    )


@pytest.fixture()
def service(toy_connector) -> DiscoveryService:
    svc = DiscoveryService(WarpGateConfig(threshold=0.3))
    svc.open(toy_connector)
    return svc


class TestLifecycle:
    def test_open_indexes_corpus(self, service):
        assert service.is_indexed
        assert service.engine.indexed_count == 8

    def test_reopen_is_rejected(self, service, toy_warehouse):
        """Re-opening would merge two corpora into one index."""
        from tests.conftest import make_toy_warehouse

        with pytest.raises(ServiceError) as excinfo:
            service.open(WarehouseConnector(make_toy_warehouse()))
        assert excinfo.value.code == "bad_request"
        assert service.engine.indexed_count == 8

    def test_search_before_open_is_not_indexed_error(self):
        svc = DiscoveryService()
        with pytest.raises(ServiceError) as excinfo:
            svc.search("db.customers.company")
        assert excinfo.value.code == "not_indexed"

    def test_config_and_engine_mutually_exclusive(self, toy_connector):
        svc = DiscoveryService(WarpGateConfig(threshold=0.3))
        svc.open(toy_connector)
        with pytest.raises(ValueError):
            DiscoveryService(WarpGateConfig(), engine=svc.engine)

    def test_cache_and_engine_mutually_exclusive(self, toy_connector):
        from repro.core.profiles import EmbeddingCache

        svc = DiscoveryService(WarpGateConfig(threshold=0.3))
        svc.open(toy_connector)
        with pytest.raises(ValueError):
            DiscoveryService(cache=EmbeddingCache(), engine=svc.engine)

    def test_hybrid_scoring_is_refused_not_ignored(self):
        """The service never runs the engine's scoring stage (ROADMAP item 1)."""
        from repro.core.warpgate import WarpGate

        hybrid = WarpGateConfig().with_scoring("hybrid")
        with pytest.raises(ValueError, match="hybrid"):
            DiscoveryService(hybrid)
        with pytest.raises(ValueError, match="hybrid"):
            DiscoveryService(engine=WarpGate(hybrid))
        with pytest.raises(ValueError, match="hybrid"):
            LookupService(WarpGate(hybrid))

    def test_dropping_every_table_unindexes(self, service):
        for table in ("customers", "vendors", "colors"):
            service.drop_table("db", table)
        assert not service.is_indexed
        assert service.stats().indexed_columns == 0


class TestSearch:
    def test_finds_joinable_column(self, service):
        response = service.search(company_ref(), 3)
        assert isinstance(response, SearchResponse)
        assert response.refs[0] == vendor_ref()

    def test_accepts_string_query(self, service):
        response = service.search("db.customers.company", 3)
        assert response.refs[0] == vendor_ref()

    def test_two_part_ref_resolves_single_database(self, service):
        response = service.search("customers.company", 3)
        assert response.refs[0] == vendor_ref()

    def test_two_part_ref_ambiguous_is_bad_request(self, service, toy_warehouse):
        toy_warehouse.create_database("other")
        with pytest.raises(ServiceError) as excinfo:
            service.search("customers.company", 3)
        assert excinfo.value.code == "bad_request"

    def test_accepts_typed_request(self, service):
        request = SearchRequest(query="db.customers.company", k=3, threshold=0.3)
        assert service.search(request).refs[0] == vendor_ref()

    def test_matches_engine_search(self, service):
        mine = service.search(company_ref(), 5).refs
        theirs = service.engine.search(company_ref(), 5).refs
        assert mine == theirs

    def test_unknown_table_is_not_found(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.search("db.ghost_table.col", 3)
        assert excinfo.value.code == "not_found"
        assert excinfo.value.status == 404

    def test_bad_k_is_bad_request(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.search(SearchRequest(query="db.customers.company", k=0))
        assert excinfo.value.code == "bad_request"

    def test_request_roundtrips_through_dict(self):
        request = SearchRequest(query="db.customers.company", k=3, threshold=0.5)
        assert SearchRequest.from_dict(request.to_dict()) == request

    def test_boolean_k_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            SearchRequest.from_dict({"query": "db.t.c", "k": True})
        assert excinfo.value.code == "bad_request"

    def test_response_to_dict(self, service):
        payload = service.search(company_ref(), 3).to_dict()
        assert payload["query"] == "db.customers.company"
        assert payload["candidates"][0]["ref"] == "db.vendors.vendor_name"
        assert payload["timing"]["response_time_s"] > 0


class TestBatchSearch:
    def test_parity_with_single_search(self, service):
        queries = [company_ref(), vendor_ref(), company_ref()]
        single = [service.search(q, 5) for q in queries]
        batch = service.search_many([SearchRequest(query=q, k=5) for q in queries])
        assert len(batch) == len(single)
        for one, many in zip(single, batch):
            assert one.refs == many.refs
            # The batched probe scores via one GEMM, the single probe via a
            # gathered matvec; both read the same float32 arena, so scores
            # agree to float32 precision (reduction order may differ).
            assert [c.score for c in one.candidates] == pytest.approx(
                [c.score for c in many.candidates], abs=1e-6
            )

    def test_duplicate_queries_embed_once(self, service):
        scans_before = service.engine.connector.stats.scan_count
        service.search_many([company_ref()] * 4)
        # One scan for the unique query column, not four.
        assert service.engine.connector.stats.scan_count == scans_before + 1

    def test_empty_batch(self, service):
        assert service.search_many([]) == []


@pytest.mark.parametrize("backend", ["lsh", "exact", "pivot"])
class TestIncrementalMutation:
    def make_service(self, warehouse, backend) -> DiscoveryService:
        svc = DiscoveryService(WarpGateConfig(threshold=0.3, search_backend=backend))
        svc.open(WarehouseConnector(warehouse))
        return svc

    def test_add_table_reflected_in_search(self, toy_warehouse, backend):
        svc = self.make_service(toy_warehouse, backend)
        before = svc.engine.indexed_count
        stats = svc.add_table("db", suppliers_table())
        assert isinstance(stats, IndexStats)
        assert stats.indexed_columns == before + 2
        assert stats.mutations == 1
        refs = svc.search(company_ref(), 10).refs
        assert ColumnRef("db", "suppliers", "supplier_name") in refs

    def test_drop_table_evicts_results(self, toy_warehouse, backend):
        svc = self.make_service(toy_warehouse, backend)
        assert vendor_ref() in svc.search(company_ref(), 10).refs
        stats = svc.drop_table("db", "vendors")
        assert stats.indexed_columns == 8 - 3
        refs = svc.search(company_ref(), 10).refs
        assert vendor_ref() not in refs

    def test_drop_unknown_table_is_not_found(self, toy_warehouse, backend):
        svc = self.make_service(toy_warehouse, backend)
        with pytest.raises(ServiceError) as excinfo:
            svc.drop_table("db", "ghost")
        assert excinfo.value.code == "not_found"

    def test_mutation_equivalent_to_full_reindex(self, toy_warehouse, backend):
        """add_table + drop_table must land on the same searchable state as
        re-indexing the final warehouse from scratch."""
        incremental = self.make_service(toy_warehouse, backend)
        incremental.add_table("db", suppliers_table())
        incremental.drop_table("db", "colors")

        from tests.conftest import make_toy_warehouse

        final = make_toy_warehouse()
        final.drop_table("db", "colors")
        final.add_table("db", suppliers_table())
        fresh = self.make_service(final, backend)

        for query in (company_ref(), vendor_ref()):
            assert (
                incremental.search(query, 10).refs == fresh.search(query, 10).refs
            )


class TestReplaceTable:
    def test_replacing_table_evicts_stale_columns(self, service):
        replacement = Table(
            "vendors",
            [Column("vendor_name", ["Acme Dynamics Corp", "Nova Analytics Llc"])],
        )
        service.add_table("db", replacement)
        indexed = service.engine.indexed_refs
        assert ColumnRef("db", "vendors", "vendor_id") not in indexed
        assert ColumnRef("db", "vendors", "city") not in indexed
        assert vendor_ref() in indexed

    def test_column_turned_ineligible_is_evicted(self, service):
        """Same column name, new ineligible dtype: the old embedding must go."""
        replacement = Table(
            "vendors",
            [
                Column("vendor_name", ["Acme Dynamics Corp", "Nova Analytics Llc"]),
                Column("city", [True, False]),  # was STRING, now BOOLEAN
            ],
        )
        service.add_table("db", replacement)
        indexed = service.engine.indexed_refs
        assert ColumnRef("db", "vendors", "city") not in indexed
        assert vendor_ref() in indexed


class TestRefreshColumn:
    def test_refresh_updates_vector(self, service, toy_warehouse):
        before = service.engine.vector_of(vendor_ref()).copy()
        mutated = Table(
            "vendors",
            [
                Column("vendor_id", [10, 11, 12]),
                Column("vendor_name", ["alpha particle", "beta decay", "gamma ray"]),
                Column("city", ["Boston", "Chicago", "Denver"]),
            ],
        )
        toy_warehouse.database("db").add_table(mutated)
        stats = service.refresh_column(vendor_ref())
        assert stats.mutations == 1
        after = service.engine.vector_of(vendor_ref())
        assert not np.allclose(before, after)

    def test_refresh_accepts_string_ref(self, service):
        stats = service.refresh_column("db.vendors.vendor_name")
        assert stats.mutations == 1

    def test_refresh_resolves_two_part_ref(self, service):
        stats = service.refresh_column("vendors.vendor_name")
        assert stats.mutations == 1

    def test_refresh_unindexed_ref_is_not_found(self, service):
        """A refresh must never turn into an insert of an excluded column."""
        with pytest.raises(ServiceError) as excinfo:
            service.refresh_column("db.vendors.nope")
        assert excinfo.value.code == "not_found"
        assert ColumnRef("db", "vendors", "nope") not in service.engine.indexed_refs


class TestStats:
    def test_counters_track_traffic(self, service):
        baseline = service.stats()
        assert baseline.indexed_columns == 8
        assert baseline.tables == 3
        assert baseline.databases == 1
        service.search(company_ref(), 3)
        service.search_many([company_ref(), vendor_ref()])
        service.add_table("db", suppliers_table())
        stats = service.stats()
        assert stats.searches == 3
        assert stats.mutations == 1
        assert stats.tables == 4

    def test_to_dict(self, service):
        payload = service.stats().to_dict()
        assert payload["backend"] == "lsh"
        assert payload["indexed_columns"] == 8
        assert "caches" in payload

    def test_cache_effectiveness_exposed(self, service):
        caches = service.stats().caches
        # The encoder's serialization + value-vector caches are always
        # reported; the registry models additionally carry a token cache,
        # and the serving engine adds its query cache.
        assert {
            "value_tokens",
            "value_vectors",
            "token_cache",
            "query_cache",
        } <= set(caches)
        for name, section in caches.items():
            if name == "coalescer":
                continue  # traffic counters, not a cache (checked below)
            assert {"size", "hits", "misses", "hit_rate"} <= set(section)
        # Indexing the 8-column corpus populated the value caches.
        assert caches["value_vectors"]["size"] > 0

    def test_serving_engine_counters_exposed(self, service):
        service.search_coalesced(company_ref(), 3)
        service.search_coalesced(company_ref(), 3)
        caches = service.stats().caches
        coalescer = caches["coalescer"]
        assert coalescer["requests"] == 2
        assert coalescer["fastpath"] == 2  # sequential submits never batch
        assert {"batches", "mean_batch", "batch_histogram"} <= set(coalescer)
        query_cache = caches["query_cache"]
        # The second identical probe is served from the result cache.
        assert query_cache["hits"] >= 1
        assert query_cache["size"] >= 1


class TestConcurrency:
    def test_search_during_mutation(self, service):
        """Concurrent readers racing an index writer never see torn state."""
        errors: list[Exception] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                try:
                    response = service.search(company_ref(), 5)
                    # The base tables are never mutated: the join must
                    # always be found, regardless of writer progress.
                    assert vendor_ref() in response.refs
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(10):
                service.add_table("db", suppliers_table())
                service.drop_table("db", "suppliers")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors
        assert service.stats().mutations == 20


class TestPersistence:
    def test_save_load_roundtrip(self, service, tmp_path, toy_warehouse):
        store = service.save(tmp_path / "svc")
        restored = DiscoveryService.load_durable(
            store, connector=WarehouseConnector(toy_warehouse)
        )
        assert restored.search(company_ref(), 3).refs == (
            service.search(company_ref(), 3).refs
        )

    def test_loaded_service_supports_mutation(self, service, tmp_path, toy_warehouse):
        store = service.save(tmp_path / "svc")
        restored = DiscoveryService.load_durable(
            store, connector=WarehouseConnector(toy_warehouse)
        )
        restored.add_table("db", suppliers_table())
        refs = restored.search(company_ref(), 10).refs
        assert ColumnRef("db", "suppliers", "supplier_name") in refs


class TestLookupIntegration:
    def test_lookup_service_accepts_discovery_service(self, service):
        lookup = LookupService(service)
        recommendations = lookup.recommend(company_ref(), k=2)
        assert recommendations[0].candidate == vendor_ref()
        # Routed through the service: the search counter moved.
        assert service.stats().searches >= 1
