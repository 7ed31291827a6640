"""Tests for repro.core.persistence: index artifact save/load.

Covers the current format-3 artifact (uncompressed, memory-mapped,
zero-copy arena adoption), the ``compress=True`` opt-in, and legacy
format-1 and format-2 compatibility.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro.core.config import WarpGateConfig
from repro.core.persistence import _save_legacy, load_index, save_index
from repro.core.warpgate import WarpGate
from repro.errors import DiscoveryError
from repro.storage.schema import ColumnRef
from repro.warehouse.connector import WarehouseConnector


@pytest.fixture()
def indexed_system(toy_connector) -> WarpGate:
    system = WarpGate(WarpGateConfig(threshold=0.3))
    system.index_corpus(toy_connector)
    return system


class TestSave:
    def test_unindexed_rejected(self, tmp_path):
        with pytest.raises(DiscoveryError):
            save_index(WarpGate(), tmp_path / "x.npz")

    def test_artifact_written(self, indexed_system, tmp_path):
        artifact = save_index(indexed_system, tmp_path / "index.npz")
        assert artifact.exists()
        assert artifact.suffix == ".npz"

    def test_suffix_normalized(self, indexed_system, tmp_path):
        artifact = save_index(indexed_system, tmp_path / "index")
        assert artifact.suffix == ".npz"
        assert artifact.exists()


class TestLoad:
    def test_missing_artifact(self, tmp_path):
        with pytest.raises(DiscoveryError):
            load_index(tmp_path / "absent.npz")

    def test_roundtrip_preserves_vectors(self, indexed_system, tmp_path):
        artifact = save_index(indexed_system, tmp_path / "index.npz")
        restored = load_index(artifact)
        assert restored.indexed_count == indexed_system.indexed_count
        ref = ColumnRef("db", "customers", "company")
        assert np.allclose(restored.vector_of(ref), indexed_system.vector_of(ref))

    def test_roundtrip_preserves_config(self, indexed_system, tmp_path):
        artifact = save_index(indexed_system, tmp_path / "index.npz")
        restored = load_index(artifact)
        assert restored.config == indexed_system.config

    def test_restored_index_answers_vector_queries(self, indexed_system, tmp_path):
        artifact = save_index(indexed_system, tmp_path / "index.npz")
        restored = load_index(artifact)
        query_ref = ColumnRef("db", "customers", "company")
        vector = indexed_system.vector_of(query_ref)
        result = restored.search_vector(vector, 3, exclude=query_ref)
        assert result.refs[0] == ColumnRef("db", "vendors", "vendor_name")

    def test_restored_index_with_connector_answers_search(
        self, indexed_system, tmp_path, toy_warehouse
    ):
        artifact = save_index(indexed_system, tmp_path / "index.npz")
        restored = load_index(artifact)
        restored.attach_connector(WarehouseConnector(toy_warehouse))
        query_ref = ColumnRef("db", "customers", "company")
        original = indexed_system.search(query_ref, 3).refs
        assert restored.search(query_ref, 3).refs == original


class TestFormat3:
    def test_artifact_is_uncompressed_by_default(self, indexed_system, tmp_path):
        artifact = save_index(indexed_system, tmp_path / "v3.npz")
        with zipfile.ZipFile(artifact) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert kinds == {zipfile.ZIP_STORED}

    def test_compress_opt_in(self, indexed_system, tmp_path):
        plain = save_index(indexed_system, tmp_path / "plain.npz")
        packed = save_index(indexed_system, tmp_path / "packed.npz", compress=True)
        with zipfile.ZipFile(packed) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert zipfile.ZIP_DEFLATED in kinds
        assert packed.stat().st_size < plain.stat().st_size
        restored = load_index(packed)
        assert restored.indexed_count == indexed_system.indexed_count

    def test_load_adopts_memory_mapped_vectors(self, indexed_system, tmp_path):
        artifact = save_index(indexed_system, tmp_path / "v3.npz")
        restored = load_index(artifact)
        arena = restored._index.arena
        assert not arena._owns_memory
        assert not arena._matrix.flags.writeable
        assert isinstance(arena._matrix.base, np.memmap)

    def test_mmap_load_equals_saved_vectors_exactly(self, indexed_system, tmp_path):
        artifact = save_index(indexed_system, tmp_path / "v3.npz")
        restored = load_index(artifact)
        for ref in indexed_system.indexed_refs:
            assert np.array_equal(
                restored.vector_of(ref), indexed_system.vector_of(ref)
            )

    def test_mutation_after_mmap_load(self, indexed_system, tmp_path, toy_warehouse):
        """Adopted read-only storage thaws transparently on first mutation."""
        artifact = save_index(indexed_system, tmp_path / "v3.npz")
        restored = load_index(artifact)
        restored.attach_connector(WarehouseConnector(toy_warehouse))
        victim = restored.indexed_refs[0]
        restored.remove_column(victim)
        assert not restored.is_column_indexed(victim)
        query_ref = ColumnRef("db", "customers", "company")
        vector = indexed_system.vector_of(query_ref)
        assert restored.search_vector(vector, 3, exclude=query_ref).candidates


class TestLegacyFormats:
    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_artifacts_still_load(self, indexed_system, tmp_path, version):
        artifact = _save_legacy(
            indexed_system, tmp_path / f"v{version}.npz", version=version
        )
        restored = load_index(artifact)
        assert restored.indexed_count == indexed_system.indexed_count
        assert restored.config == indexed_system.config
        query_ref = ColumnRef("db", "customers", "company")
        vector = indexed_system.vector_of(query_ref)
        want = indexed_system.search_vector(vector, 3, exclude=query_ref).refs
        assert restored.search_vector(vector, 3, exclude=query_ref).refs == want

    def test_legacy_v2_matches_v3_results(self, indexed_system, tmp_path):
        v2 = load_index(_save_legacy(indexed_system, tmp_path / "v2.npz", version=2))
        v3 = load_index(save_index(indexed_system, tmp_path / "v3.npz"))
        assert v2.indexed_count == v3.indexed_count
        for ref in indexed_system.indexed_refs:
            assert np.allclose(v2.vector_of(ref), v3.vector_of(ref), atol=1e-6)

    def test_unsupported_version_rejected(self, indexed_system, tmp_path):
        with pytest.raises(ValueError):
            _save_legacy(indexed_system, tmp_path / "v9.npz", version=9)


class TestSearchVector:
    def test_zero_vector_empty(self, indexed_system):
        result = indexed_system.search_vector(np.zeros(64), 3)
        assert result.candidates == []

    def test_without_exclude_returns_self(self, indexed_system):
        query_ref = ColumnRef("db", "customers", "company")
        vector = indexed_system.vector_of(query_ref)
        result = indexed_system.search_vector(vector, 3)
        assert query_ref in result.refs

    def test_timing_is_lookup_only(self, indexed_system):
        vector = indexed_system.vector_of(ColumnRef("db", "customers", "company"))
        timing = indexed_system.search_vector(vector, 3).timing
        assert timing.load_s == 0.0
        assert timing.embed_s == 0.0
        assert timing.lookup_s > 0.0
