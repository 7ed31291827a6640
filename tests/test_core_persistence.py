"""Tests for saving and loading an index: the durable store is the only format.

``DiscoveryService.save`` checkpoints the engine into a store directory
(MANIFEST + one segment + WAL) and ``DiscoveryService.load_durable`` is
recovery.  Covers the round trip, the refusal of single-file ``.npz``
artifacts and pickled members, and that a damaged segment never loads.
"""

from __future__ import annotations

import io
import json
import pickle
import zipfile
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import WarpGateConfig
from repro.core.warpgate import WarpGate
from repro.durability import fsck_store
from repro.errors import (
    ArtifactCorruptionError,
    DiscoveryError,
    ManifestError,
    SegmentChecksumError,
)
from repro.service.discovery import DiscoveryService
from repro.storage.column import Column
from repro.storage.schema import ColumnRef
from repro.storage.table import Table
from repro.warehouse.connector import WarehouseConnector

COMPANY = ColumnRef("db", "customers", "company")


@pytest.fixture()
def indexed_system(toy_connector) -> WarpGate:
    system = WarpGate(WarpGateConfig(threshold=0.3))
    system.index_corpus(toy_connector)
    return system


@pytest.fixture()
def saved(indexed_system, tmp_path):
    """An indexed engine and the store ``save`` wrote from it."""
    store = DiscoveryService(engine=indexed_system).save(tmp_path / "store")
    return indexed_system, store


def _load(store, **kwargs) -> DiscoveryService:
    service = DiscoveryService.load_durable(store, **kwargs)
    service.close()
    return service


class TestSave:
    def test_unindexed_rejected(self, tmp_path):
        with pytest.raises(DiscoveryError):
            DiscoveryService().save(tmp_path / "store")
        assert not (tmp_path / "store").exists()

    def test_artifact_written(self, saved):
        _system, store = saved
        assert (store / "MANIFEST").is_file()
        assert len(list((store / "segments").glob("seg-*.npz"))) == 1
        report = fsck_store(store)
        assert report["clean"]
        assert report["wal"]["records"] == 0

    def test_save_over_a_store_replaces_it(self, saved, toy_connector):
        system, store = saved
        other = DiscoveryService(WarpGateConfig(threshold=0.3, dim=32))
        other.open(toy_connector)
        dropped = other.engine.indexed_refs[0]
        other.engine.remove_column(dropped)
        assert other.save(store) == store
        restored = _load(store)
        assert restored.engine.config.dim == 32
        assert set(restored.engine.indexed_refs) == set(system.indexed_refs) - {dropped}
        assert len(list((store / "segments").glob("seg-*.npz"))) == 1

    def test_save_into_its_own_store_checkpoints_it(self, tmp_path, toy_connector):
        store = tmp_path / "store"
        config = WarpGateConfig(threshold=0.3).with_durability(str(store), fsync="never")
        service = DiscoveryService(config)
        service.open(toy_connector)
        victim = service.engine.indexed_refs[0]
        service.engine.remove_column(victim)
        assert service.save(store) == store
        assert service.durable_store.read_manifest()["manifest_seq"] == 2
        service.drop_table("db", victim.table)
        expected = set(service.engine.indexed_refs)
        service.close()
        assert set(_load(store).engine.indexed_refs) == expected

    def test_save_refuses_a_regular_file(self, indexed_system, tmp_path):
        target = tmp_path / "index.npz"
        target.write_bytes(b"not a store")
        with pytest.raises(DiscoveryError, match="is a file"):
            DiscoveryService(engine=indexed_system).save(target)
        assert target.read_bytes() == b"not a store"


class TestLoad:
    def test_missing_artifact(self, tmp_path):
        """Recovery never creates a store: a mistyped path stays absent."""
        missing = tmp_path / "typo" / "store"
        with pytest.raises(ManifestError):
            DiscoveryService.load_durable(missing)
        assert not missing.exists()
        assert not (tmp_path / "typo").exists()

    def test_roundtrip_preserves_vectors(self, saved):
        system, store = saved
        restored = _load(store)
        assert restored.engine.indexed_count == system.indexed_count
        for ref in system.indexed_refs:
            assert np.array_equal(restored.engine.vector_of(ref), system.vector_of(ref))

    def test_roundtrip_preserves_config(self, saved):
        system, store = saved
        restored = _load(store)
        # The recovered store is where later mutations are logged.
        assert restored.engine.config == replace(system.config, durable_dir=str(store))

    def test_restored_index_answers_vector_queries(self, saved):
        system, store = saved
        restored = _load(store)
        vector = system.vector_of(COMPANY)
        result = restored.engine.search_vector(vector, 3, exclude=COMPANY)
        assert result.refs[0] == ColumnRef("db", "vendors", "vendor_name")

    def test_restored_index_with_connector_answers_search(self, saved, toy_warehouse):
        system, store = saved
        restored = _load(store, connector=WarehouseConnector(toy_warehouse))
        expected = system.search(COMPANY, 3)
        answer = restored.search(COMPANY, 3)
        assert answer.refs == expected.refs
        assert [c.score for c in answer.candidates] == [
            c.score for c in expected.candidates
        ]

    def test_mutation_after_load_survives_a_second_load(self, saved, toy_warehouse):
        _system, store = saved
        restored = DiscoveryService.load_durable(
            store, connector=WarehouseConnector(toy_warehouse)
        )
        table = Table(
            "suppliers",
            [Column("supplier_name", ["Acme Dynamics Corp", "Vertex Energy", "Nova Llc"])],
        )
        restored.add_table("db", table)
        restored.drop_table("db", "vendors")
        expected = set(restored.engine.indexed_refs)
        restored.close()
        again = _load(store)
        assert set(again.engine.indexed_refs) == expected
        assert ColumnRef("db", "suppliers", "supplier_name") in expected
        assert again.recovery_report["wal_records_replayed"] == 2


class TestFormat3:
    """The segment payload keeps the format-3 layout: uncompressed ``.npz``
    members that recovery reads as ``np.memmap`` views, not copies."""

    def test_mmap_load_equals_saved_vectors_exactly(self, saved):
        from repro.index.mmapio import load_npz_arrays

        system, store = saved
        segment = next((store / "segments").glob("seg-*.npz"))
        assert isinstance(load_npz_arrays(segment)["vectors"], np.memmap)
        restored = _load(store)
        for ref in system.indexed_refs:
            assert np.array_equal(restored.engine.vector_of(ref), system.vector_of(ref))


def _flip_one_vector_row(store, system: WarpGate) -> None:
    """Flip the sign bits of one stored ``vectors`` row in place (same size)."""
    segment = next((store / "segments").glob("seg-*.npz"))
    data = bytearray(segment.read_bytes())
    for ref in system.indexed_refs:
        row = np.ascontiguousarray(system.vector_of(ref), dtype="<f4").tobytes()
        offset = data.find(row)
        if offset >= 0 and data.find(row, offset + 1) < 0:
            break
    else:
        pytest.fail("no vector row is stored exactly once")
    for sign_byte in range(offset + 3, offset + len(row), 4):
        data[sign_byte] ^= 0x80
    size = segment.stat().st_size
    segment.write_bytes(bytes(data))
    assert segment.stat().st_size == size


class TestCorruption:
    def test_bit_flipped_vectors_row_never_loads(self, saved, capsys):
        system, store = saved
        _flip_one_vector_row(store, system)
        with pytest.raises(SegmentChecksumError):
            DiscoveryService.load_durable(store)
        segment = next((store / "segments").glob("seg-*.npz"))
        capsys.readouterr()
        assert main(["fsck", str(store)]) == 1
        assert segment.name in capsys.readouterr().out


class _Payload:
    """Unpickling this touches ``marker``: proof that a pickle ran."""

    def __init__(self, marker) -> None:
        self.marker = str(marker)

    def __reduce__(self):
        return exec, (f"import pathlib; pathlib.Path({self.marker!r}).touch()",)


def _plant_pickled_refs(path, marker, *, header: dict | None = None) -> None:
    """Write (or rewrite) an ``.npz`` whose ``refs`` member is a live object array."""
    members = {}
    if path.exists():
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
    refs = np.empty(1, dtype=object)
    refs[0] = _Payload(marker)
    members["refs"] = refs
    if header is not None:
        members["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
    with path.open("wb") as handle:
        np.savez(handle, **members)


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
        """A single-file ``.npz`` artifact of either old format is refused unread."""
        for version in (2, 3):
            artifact = tmp_path / f"v{version}.npz"
            marker = tmp_path / f"ran-{version}"
            header = {"format_version": version, "config": asdict(indexed_system.config)}
            _plant_pickled_refs(artifact, marker, header=header)
            with pytest.raises(DiscoveryError) as raised:
                DiscoveryService.load_durable(artifact)
            assert type(raised.value) is DiscoveryError
            message = str(raised.value)
            assert str(artifact) in message
            assert "no longer load" in message
            assert "python -m repro index" in message
            assert not marker.exists()
            _assert_payload_is_live(artifact, marker)

    @pytest.mark.parametrize("container", ["segment"])
    def test_object_array_member_is_refused_unrun(self, saved, tmp_path, container):
        _system, store = saved
        marker = tmp_path / "ran"
        manifest_path = store / "MANIFEST"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        entry = manifest["segments"][0]
        target = store / "segments" / entry["name"]
        _plant_pickled_refs(target, marker)
        # Re-seal the manifest so the checksum gate passes and the
        # loader itself meets the object array.
        entry["crc32"] = zipfile.crc32(target.read_bytes())
        entry["bytes"] = target.stat().st_size
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ArtifactCorruptionError):
            DiscoveryService.load_durable(store)
        assert not marker.exists()
        _assert_payload_is_live(target, marker)


class TestSearchVector:
    def test_zero_vector_empty(self, indexed_system):
        result = indexed_system.search_vector(np.zeros(64), 3)
        assert result.candidates == []

    def test_without_exclude_returns_self(self, indexed_system):
        vector = indexed_system.vector_of(COMPANY)
        result = indexed_system.search_vector(vector, 3)
        assert COMPANY in result.refs

    def test_timing_is_lookup_only(self, indexed_system):
        vector = indexed_system.vector_of(COMPANY)
        timing = indexed_system.search_vector(vector, 3).timing
        assert timing.load_s == 0.0
        assert timing.embed_s == 0.0
        assert timing.lookup_s > 0.0
