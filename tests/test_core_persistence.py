"""Tests for repro.core.persistence: index artifact save/load.

Covers the format-3 artifact (uncompressed, memory-mapped, zero-copy
arena adoption), the ``compress=True`` opt-in, and the refusal of older
formats and pickled members.
"""

from __future__ import annotations

import io
import json
import pickle
import zipfile
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import WarpGateConfig
from repro.core.persistence import (
    load_index,
    load_index_durable,
    save_index,
    save_index_durable,
)
from repro.core.warpgate import WarpGate
from repro.errors import ArtifactCorruptionError, DiscoveryError
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


class _Payload:
    """Unpickling this touches ``marker``: proof that a pickle ran."""

    def __init__(self, marker) -> None:
        self.marker = str(marker)

    def __reduce__(self):
        return exec, (f"import pathlib; pathlib.Path({self.marker!r}).touch()",)


def _plant_pickled_refs(path, marker, *, header: dict | None = None) -> None:
    """Rewrite an ``.npz`` so its ``refs`` member is a live object array."""
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    refs = np.empty(1, dtype=object)
    refs[0] = _Payload(marker)
    members["refs"] = refs
    if header is not None:
        members["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
    np.savez(path, **members)


def _assert_payload_is_live(path, marker) -> None:
    """Control: the planted member runs code once something unpickles it."""
    with zipfile.ZipFile(path) as archive:
        member = io.BytesIO(archive.read("refs.npy"))
    np.lib.format.read_magic(member)
    np.lib.format.read_array_header_1_0(member)
    pickle.load(member)
    assert marker.exists()


class TestNoPickle:
    def test_format_2_header_raises_typed_error(self, indexed_system, tmp_path):
        artifact = save_index(indexed_system, tmp_path / "v2.npz")
        marker = tmp_path / "ran"
        header = {"format_version": 2, "config": asdict(indexed_system.config)}
        _plant_pickled_refs(artifact, marker, header=header)
        with pytest.raises(DiscoveryError) as raised:
            load_index(artifact)
        assert type(raised.value) is DiscoveryError
        assert "format 2" in str(raised.value)
        assert "python -m repro index" in str(raised.value)
        assert not marker.exists()
        _assert_payload_is_live(artifact, marker)

    @pytest.mark.parametrize("container", ["artifact", "segment"])
    def test_object_array_member_is_refused_unrun(
        self, indexed_system, tmp_path, container
    ):
        marker = tmp_path / "ran"
        if container == "artifact":
            target = save_index(indexed_system, tmp_path / "v3.npz")
            _plant_pickled_refs(target, marker)
            with pytest.raises(ArtifactCorruptionError):
                load_index(target)
        else:
            store_dir = tmp_path / "store"
            save_index_durable(indexed_system, store_dir).close()
            manifest_path = store_dir / "MANIFEST"
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            entry = manifest["segments"][0]
            target = store_dir / "segments" / entry["name"]
            _plant_pickled_refs(target, marker)
            # Re-seal the manifest so the checksum gate passes and the
            # loader itself meets the object array.
            entry["crc32"] = zipfile.crc32(target.read_bytes())
            entry["bytes"] = target.stat().st_size
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            with pytest.raises(ArtifactCorruptionError):
                load_index_durable(store_dir)
        assert not marker.exists()
        _assert_payload_is_live(target, marker)


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
