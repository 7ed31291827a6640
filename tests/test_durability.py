"""Durable store components: WAL framing, checkpoint/recovery, fsck.

The crash-point *matrix* — kill the process at every registered fault
point and assert recovery restores the acknowledged state — lives in
``tests/test_failure_injection.py``; this module pins the component
contracts that matrix builds on.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import rng_for
from repro.core.config import WarpGateConfig
from repro.core.warpgate import WarpGate
from repro.durability import (
    DurableIndexStore,
    WriteAheadLog,
    faultpoints,
    fsck_store,
    scan_wal,
)
from repro.durability.wal import decode_vectors, encode_vectors
from repro.errors import (
    ArtifactCorruptionError,
    DiscoveryError,
    DurabilityError,
    ManifestError,
    SegmentChecksumError,
    WalCorruptionError,
)
from repro.service.discovery import DiscoveryService
from repro.service.types import ServiceError
from repro.storage.column import Column
from repro.storage.schema import ColumnRef
from repro.storage.table import Table
from repro.warehouse.connector import WarehouseConnector

DIM = 16


@pytest.fixture(autouse=True)
def _clean_faultpoints():
    yield
    faultpoints.disarm_all()


def make_engine(n: int = 8, key: object = "base") -> tuple[WarpGate, list[ColumnRef]]:
    """A small indexed engine with deterministic unit vectors."""
    matrix = rng_for("durability-test", key).standard_normal((n, DIM))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    refs = [ColumnRef("db", f"t{i // 4}", f"c{i % 4}") for i in range(n)]
    system = WarpGate(WarpGateConfig(model_name="hashing", dim=DIM))
    system._index.bulk_load(refs, matrix.astype(np.float32))
    system._indexed = True
    return system, refs


def fresh_vector(key: object) -> np.ndarray:
    vector = rng_for("durability-vec", key).standard_normal(DIM)
    return (vector / np.linalg.norm(vector)).astype(np.float32)


def recover_state(directory: Path) -> dict[ColumnRef, np.ndarray]:
    """The store's recovered logical state as a ref -> vector dict."""
    with DurableIndexStore(directory, fsync="never") as store:
        _config, refs, vectors, _report = store.recover()
    return {ref: vectors[position] for position, ref in enumerate(refs)}


class TestWalFraming:
    def test_append_scan_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="never") as wal:
            for seq in (1, 2, 3):
                wal.append({"seq": seq, "op": "remove", "refs": [["d", "t", f"c{seq}"]]})
        records, info = scan_wal(path)
        assert [record["seq"] for record in records] == [1, 2, 3]
        assert info["torn_tail_bytes"] == 0
        assert info["scanned_bytes"] == path.stat().st_size

    def test_torn_tail_is_reported_and_discarded(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="never") as wal:
            wal.append({"seq": 1, "op": "remove", "refs": []})
            wal.append({"seq": 2, "op": "remove", "refs": []})
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # crash mid-frame: short final record
        records, info = scan_wal(path)
        assert [record["seq"] for record in records] == [1]
        assert info["torn_tail_bytes"] > 0

    def test_complete_frame_crc_mismatch_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="never") as wal:
            wal.append({"seq": 1, "op": "remove", "refs": []})
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte; the frame stays complete
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            scan_wal(path)

    def test_sequence_regression_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="never") as wal:
            wal.append({"seq": 5, "op": "remove", "refs": []})
            wal.append({"seq": 4, "op": "remove", "refs": []})
        with pytest.raises(WalCorruptionError):
            scan_wal(path)

    def test_missing_log_scans_empty(self, tmp_path):
        records, info = scan_wal(tmp_path / "absent.log")
        assert records == [] and info["torn_tail_bytes"] == 0

    def test_truncate_discards_everything(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="always") as wal:
            wal.append({"seq": 1, "op": "remove", "refs": []})
            wal.truncate()
        assert path.stat().st_size == 0

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")

    def test_vector_codec_is_bitwise(self):
        vectors = rng_for("codec").standard_normal((3, DIM)).astype(np.float32)
        assert np.array_equal(decode_vectors(encode_vectors(vectors), 3, DIM), vectors)


class TestStoreCheckpointAndRecovery:
    def test_checkpoint_recover_roundtrip(self, tmp_path):
        system, refs = make_engine()
        DiscoveryService(engine=system).save(tmp_path / "store")
        service = DiscoveryService.load_durable(tmp_path / "store")
        service.close()
        recovered, report = service.engine, service.recovery_report
        assert set(recovered.indexed_refs) == set(refs)
        for ref in refs:
            assert np.array_equal(recovered.vector_of(ref), system.vector_of(ref))
        assert report["recovered_columns"] == len(refs)
        assert report["wal_records_replayed"] == 0

    def test_unindexed_engine_rejected(self, tmp_path):
        with pytest.raises(DiscoveryError):
            DiscoveryService(engine=WarpGate()).save(tmp_path / "store")

    def test_wal_replay_applies_acknowledged_mutations(self, tmp_path):
        system, refs = make_engine()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            store.checkpoint(system)
            extra = ColumnRef("db", "t9", "new")
            vector = fresh_vector("replay")
            store.log_upsert([extra], vector[None, :])
            store.log_remove([refs[0]])
        state = recover_state(tmp_path / "store")
        assert set(state) == (set(refs) - {refs[0]}) | {extra}
        assert np.array_equal(state[extra], vector)  # replay is bitwise

    def test_recovery_report_counts(self, tmp_path):
        system, refs = make_engine()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            store.checkpoint(system)
            store.log_remove([refs[0]])
            store.log_remove([refs[1]])
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            _config, _refs, _vectors, report = store.recover()
        assert report["rows_from_segments"] == len(refs)
        assert report["wal_records_replayed"] == 2
        assert report["wal_records_skipped"] == 0
        assert report["torn_tail_bytes"] == 0
        assert report["recovered_columns"] == len(refs) - 2

    def test_checkpoint_compacts_wal_and_segments(self, tmp_path):
        system, refs = make_engine()
        store = DurableIndexStore(tmp_path / "store", fsync="never")
        first = store.checkpoint(system)
        store.log_remove([refs[0]])
        assert store.pending_records == 1
        second = store.checkpoint(system)
        store.close()
        assert second["manifest_seq"] == first["manifest_seq"] + 1
        assert store.pending_records == 0
        assert (tmp_path / "store" / "wal.log").stat().st_size == 0
        segments = sorted(p.name for p in (tmp_path / "store" / "segments").iterdir())
        assert segments == [second["segments"][0]["name"]]

    def test_auto_checkpoint_after_budget(self, tmp_path):
        system, refs = make_engine()
        store = DurableIndexStore(
            tmp_path / "store", fsync="never", checkpoint_every=2
        )
        store.ensure_base(system)
        store.log_remove([refs[0]])
        assert not store.maybe_checkpoint(system)
        store.log_remove([refs[1]])
        assert store.maybe_checkpoint(system)
        assert store.pending_records == 0
        store.close()

    def test_torn_wal_tail_discarded_on_recover(self, tmp_path):
        system, refs = make_engine()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            store.checkpoint(system)
            store.log_remove([refs[0]])
        wal_path = tmp_path / "store" / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes() + b"\x99\x00\x00\x00oops")
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            _config, recovered_refs, _vectors, report = store.recover()
        assert report["torn_tail_bytes"] > 0
        assert report["wal_records_replayed"] == 1
        assert set(recovered_refs) == set(refs) - {refs[0]}

    def test_segment_corruption_is_typed(self, tmp_path):
        system, _refs = make_engine()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            manifest = store.checkpoint(system)
        segment = tmp_path / "store" / "segments" / manifest["segments"][0]["name"]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            with pytest.raises(SegmentChecksumError):
                store.recover()

    def test_truncated_segment_is_typed(self, tmp_path):
        system, _refs = make_engine()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            manifest = store.checkpoint(system)
        segment = tmp_path / "store" / "segments" / manifest["segments"][0]["name"]
        segment.write_bytes(segment.read_bytes()[:-16])
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            with pytest.raises(ArtifactCorruptionError):
                store.recover()

    def test_missing_segment_is_typed(self, tmp_path):
        system, _refs = make_engine()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            manifest = store.checkpoint(system)
        (tmp_path / "store" / "segments" / manifest["segments"][0]["name"]).unlink()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            with pytest.raises(SegmentChecksumError):
                store.recover()

    def test_garbage_manifest_is_typed(self, tmp_path):
        system, _refs = make_engine()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            store.checkpoint(system)
        (tmp_path / "store" / "MANIFEST").write_text("not json {", encoding="utf-8")
        with pytest.raises(ManifestError):
            DurableIndexStore(tmp_path / "store", fsync="never")

    def test_upsert_shape_mismatch_rejected(self, tmp_path):
        system, refs = make_engine()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            store.checkpoint(system)
            with pytest.raises(DurabilityError):
                store.log_upsert([refs[0], refs[1]], fresh_vector("x")[None, :])


class TestReplayEqualsOracle:
    """Property: WAL replay over any op history equals the dict oracle."""

    @settings(max_examples=12, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["upsert", "remove"]), st.integers(0, 7)),
            max_size=24,
        )
    )
    def test_wal_replay_matches_in_memory_oracle(self, ops):
        system, refs = make_engine(n=4, key="oracle-base")
        pool = [ColumnRef("db", "pool", f"c{slot}") for slot in range(8)]
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "store"
            oracle: dict[ColumnRef, np.ndarray] = {}
            with DurableIndexStore(directory, fsync="never") as store:
                store.checkpoint(system)
                for ref in refs:
                    oracle[ref] = np.asarray(system.vector_of(ref))
                for step, (op, slot) in enumerate(ops):
                    ref = pool[slot]
                    if op == "upsert":
                        vector = fresh_vector(("oracle", step))
                        store.log_upsert([ref], vector[None, :])
                        oracle[ref] = vector
                    else:
                        store.log_remove([ref])
                        oracle.pop(ref, None)
            state = recover_state(directory)
            assert set(state) == set(oracle)
            for ref, vector in oracle.items():
                assert np.array_equal(state[ref], vector)


class TestFsck:
    def _store(self, tmp_path) -> Path:
        system, refs = make_engine()
        with DurableIndexStore(tmp_path / "store", fsync="never") as store:
            store.checkpoint(system)
            store.log_remove([refs[0]])
        return tmp_path / "store"

    def test_clean_store(self, tmp_path):
        directory = self._store(tmp_path)
        report = fsck_store(directory)
        assert report["clean"]
        assert report["wal"]["records"] == 1
        assert report["segments"][0]["crc_ok"]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(DurabilityError):
            fsck_store(tmp_path / "nowhere")

    def test_torn_tail_is_a_warning(self, tmp_path):
        directory = self._store(tmp_path)
        wal_path = directory / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes() + b"\x40\x00\x00\x00torn")
        report = fsck_store(directory)
        assert not report["clean"] and not report["problems"]
        assert any("torn" in warning for warning in report["warnings"])

    def test_orphan_segment_is_a_warning(self, tmp_path):
        directory = self._store(tmp_path)
        (directory / "segments" / "seg-999999.npz").write_bytes(b"leftover")
        report = fsck_store(directory)
        assert not report["clean"] and not report["problems"]
        assert report["orphan_segments"] == ["seg-999999.npz"]

    def test_corrupt_segment_is_a_problem(self, tmp_path):
        directory = self._store(tmp_path)
        segment = next((directory / "segments").glob("seg-*.npz"))
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        report = fsck_store(directory)
        assert not report["clean"]
        assert any("CRC" in problem for problem in report["problems"])

    def test_corrupt_wal_frame_is_a_problem(self, tmp_path):
        directory = self._store(tmp_path)
        wal_path = directory / "wal.log"
        data = bytearray(wal_path.read_bytes())
        data[-1] ^= 0xFF
        wal_path.write_bytes(bytes(data))
        report = fsck_store(directory)
        assert not report["clean"]
        assert report["problems"]


class TestServiceDurability:
    def _open(self, tmp_path, toy_warehouse) -> DiscoveryService:
        config = WarpGateConfig(threshold=0.3).with_durability(
            str(tmp_path / "store"), fsync="never"
        )
        service = DiscoveryService(config)
        service.open(WarehouseConnector(toy_warehouse))
        return service

    def test_mutations_survive_recovery(self, tmp_path, toy_warehouse):
        service = self._open(tmp_path, toy_warehouse)
        service.add_table(
            "db", Table("extra", [Column("widget", ["alpha", "beta", "gamma"])])
        )
        service.drop_table("db", "colors")
        live_refs = set(service.engine.indexed_refs)
        stats = service.stats()
        assert stats.durability is not None
        assert stats.durability["wal_pending_records"] >= 2
        service.close()

        recovered = DiscoveryService.load_durable(tmp_path / "store")
        assert recovered.recovery_report["wal_records_replayed"] >= 2
        assert set(recovered.engine.indexed_refs) == live_refs
        for ref in live_refs:
            assert np.allclose(
                recovered.engine.vector_of(ref),
                service.engine.vector_of(ref),
                rtol=0,
                atol=1e-6,
            )
        recovered.close()

    def test_search_parity_live_vs_recovered(self, tmp_path, toy_warehouse):
        service = self._open(tmp_path, toy_warehouse)
        query = ColumnRef("db", "customers", "company")
        live = service.engine.search(query, 5)
        service.close()
        recovered = DiscoveryService.load_durable(
            tmp_path / "store", connector=WarehouseConnector(toy_warehouse)
        )
        replayed = recovered.engine.search(query, 5)
        recovered.close()
        assert [c.ref for c in live.candidates] == [c.ref for c in replayed.candidates]
        for a, b in zip(live.candidates, replayed.candidates):
            assert b.score == pytest.approx(a.score, abs=1e-6)

    def test_open_over_checkpointed_store_rejected(self, tmp_path, toy_warehouse):
        self._open(tmp_path, toy_warehouse).close()
        config = WarpGateConfig(threshold=0.3).with_durability(
            str(tmp_path / "store"), fsync="never"
        )
        second = DiscoveryService(config)
        with pytest.raises(ServiceError):
            second.open(WarehouseConnector(toy_warehouse))
        second.close()

    def test_service_checkpoint_compacts(self, tmp_path, toy_warehouse):
        service = self._open(tmp_path, toy_warehouse)
        service.drop_table("db", "colors")
        assert service.stats().durability["wal_pending_records"] >= 1
        manifest = service.checkpoint()
        assert manifest["manifest_seq"] == 2
        assert service.stats().durability["wal_pending_records"] == 0
        service.close()

    def test_in_memory_service_has_no_durability(self, toy_warehouse):
        service = DiscoveryService(WarpGateConfig(threshold=0.3))
        service.open(WarehouseConnector(toy_warehouse))
        assert service.stats().durability is None
        assert service.checkpoint() is None
        assert service.durable_store is None
        service.close()
