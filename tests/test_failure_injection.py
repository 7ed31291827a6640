"""Failure-injection tests: the system degrades loudly, not silently.

The second half of this module is the durability *crash matrix*: for
every crash point registered in :mod:`repro.durability.faultpoints`,
simulate the process dying at exactly that instruction and assert that
recovery restores the acknowledged state — no acknowledged mutation
lost, no phantom mutation invented (beyond the durable-but-in-flight
record WAL semantics permit).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import rng_for
from repro.core.config import WarpGateConfig
from repro.core.warpgate import WarpGate
from repro.durability import (
    CRASH_POINTS,
    DurableIndexStore,
    InjectedCrash,
    faultpoints,
    fsck_store,
)
from repro.errors import (
    CsvFormatError,
    InvalidQueryError,
    ReproError,
    ScanBudgetExceededError,
)
from repro.service.discovery import DiscoveryService
from repro.storage.column import Column
from repro.storage.csv_codec import read_csv
from repro.storage.schema import ColumnRef
from repro.storage.table import Table
from repro.storage.types import DataType
from repro.warehouse.catalog import Warehouse
from repro.warehouse.connector import WarehouseConnector


class TestMalformedCsv:
    @pytest.mark.parametrize(
        "payload",
        [
            "",
            "   \n  ",
            "a,b\n1\n",  # ragged
            "a,,c\n1,2,3\n",  # blank header
        ],
    )
    def test_rejected_with_csv_error(self, payload):
        with pytest.raises(CsvFormatError):
            read_csv(payload, "bad")

    def test_error_names_the_table(self):
        with pytest.raises(CsvFormatError) as excinfo:
            read_csv("a,b\n1\n", "orders")
        assert "orders" in str(excinfo.value)


class TestScanBudgetMidIndexing:
    def test_budget_exhaustion_surfaces(self, toy_warehouse):
        """A byte budget that dies mid-indexing raises, never truncates."""
        connector = WarehouseConnector(toy_warehouse, scan_budget_bytes=100)
        system = WarpGate()
        with pytest.raises(ScanBudgetExceededError):
            system.index_corpus(connector)

    def test_partial_state_not_searchable(self, toy_warehouse):
        connector = WarehouseConnector(toy_warehouse, scan_budget_bytes=100)
        system = WarpGate()
        with pytest.raises(ScanBudgetExceededError):
            system.index_corpus(connector)
        from repro.errors import NotIndexedError

        with pytest.raises(NotIndexedError):
            system.search(ColumnRef("db", "customers", "company"), 3)


class TestDegenerateColumns:
    def _index(self, *columns: Column) -> WarpGate:
        warehouse = Warehouse("degenerate")
        warehouse.add_table("db", Table("weird", list(columns)))
        warehouse.add_table(
            "db",
            Table("normal", [Column("name", ["Acme Corp", "Globex Inc", "Umbrella"])]),
        )
        system = WarpGate(WarpGateConfig(threshold=0.0))
        system.index_corpus(WarehouseConnector(warehouse))
        return system

    def test_all_null_column_skipped_not_crashed(self):
        system = self._index(
            Column("empty", [None, None, None], DataType.STRING),
            Column("ok", ["x", "y", "z"]),
        )
        # The all-null column embeds to zero and is not indexed.
        assert not system.is_column_indexed(ColumnRef("db", "weird", "empty"))
        assert system.is_column_indexed(ColumnRef("db", "weird", "ok"))

    def test_all_null_query_returns_empty(self):
        system = self._index(
            Column("empty", [None, None, None], DataType.STRING),
            Column("ok", ["x", "y", "z"]),
        )
        result = system.search(ColumnRef("db", "weird", "empty"), 5)
        assert result.candidates == []

    def test_punctuation_only_column_handled(self):
        system = self._index(Column("punct", ["!!!", "---", "..."]))
        result = system.search(ColumnRef("db", "weird", "punct"), 5)
        assert isinstance(result.candidates, list)

    def test_single_row_column_indexable(self):
        system = self._index(Column("one", ["acme"]), Column("pad", ["x"]))
        assert system.is_column_indexed(ColumnRef("db", "weird", "one"))


class TestLookupMisuse:
    def test_unknown_refs_raise_invalid_query(self, toy_connector):
        from repro.core.lookup import LookupService

        system = WarpGate(WarpGateConfig(threshold=0.3))
        system.index_corpus(toy_connector)
        service = LookupService(system)
        with pytest.raises(InvalidQueryError):
            service.add_column_via_lookup(
                ColumnRef("db", "customers", "company"),
                ColumnRef("db", "vendors", "vendor_name"),
                ["no_such_column"],
            )

    def test_everything_is_catchable_as_repro_error(self, toy_connector):
        system = WarpGate()
        try:
            system.search(ColumnRef("db", "customers", "company"), 3)
        except ReproError:
            pass  # NotIndexedError is a ReproError: one catch at boundaries
        else:
            pytest.fail("expected a ReproError")


# --- durability crash matrix ---------------------------------------------------

DIM = 16


@pytest.fixture(autouse=True)
def _clean_faultpoints():
    yield
    faultpoints.disarm_all()


def _make_engine(n: int = 8) -> tuple[WarpGate, list[ColumnRef]]:
    matrix = rng_for("crash-matrix").standard_normal((n, DIM))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    refs = [ColumnRef("db", f"t{i // 4}", f"c{i % 4}") for i in range(n)]
    system = WarpGate(WarpGateConfig(model_name="hashing", dim=DIM))
    system._index.bulk_load(refs, matrix.astype(np.float32))
    system._indexed = True
    return system, refs


def _vec(key: object) -> np.ndarray:
    vector = rng_for("crash-matrix-vec", key).standard_normal(DIM)
    return (vector / np.linalg.norm(vector)).astype(np.float32)


def _recover_state(directory) -> dict[ColumnRef, np.ndarray]:
    with DurableIndexStore(directory, fsync="never") as store:
        _config, refs, vectors, _report = store.recover()
    return {ref: vectors[position] for position, ref in enumerate(refs)}


def _assert_state(
    actual: dict[ColumnRef, np.ndarray], expected: dict[ColumnRef, np.ndarray]
) -> None:
    assert set(actual) == set(expected)
    for ref, vector in expected.items():
        # Bitwise: segments carry the arena bytes verbatim and WAL replay
        # decodes the exact float32 payload — recovery never re-derives.
        assert np.array_equal(actual[ref], vector), f"vector drift at {ref}"


class TestDurabilityCrashMatrix:
    """Kill the store at every registered point; recover; compare oracles."""

    WAL_APPEND_POINTS = tuple(
        point for point in CRASH_POINTS if point.startswith("wal.append.")
    )
    CHECKPOINT_POINTS = tuple(
        point
        for point in CRASH_POINTS
        if point.startswith(("segment.seal.", "manifest.publish.", "wal.truncate."))
    )

    def test_matrix_covers_every_registered_point(self):
        """A new fire site must land in exactly one matrix bucket."""
        covered = self.WAL_APPEND_POINTS + self.CHECKPOINT_POINTS
        assert sorted(covered) == sorted(CRASH_POINTS)

    def _base(self, tmp_path):
        """Checkpointed base plus one acknowledged mutation."""
        system, refs = _make_engine()
        store = DurableIndexStore(tmp_path / "store", fsync="always")
        store.checkpoint(system)
        oracle = {ref: np.asarray(system.vector_of(ref)) for ref in refs}
        ref_a = refs[0]
        system._index.update(ref_a, _vec("A"))
        vector_a = np.asarray(system.vector_of(ref_a))
        store.log_upsert([ref_a], vector_a[None, :])  # acknowledged
        oracle[ref_a] = vector_a
        return system, refs, store, oracle

    @pytest.mark.parametrize("point", WAL_APPEND_POINTS)
    def test_crash_during_append_keeps_acknowledged_state(self, tmp_path, point):
        system, refs, store, oracle = self._base(tmp_path)
        ref_b = refs[1]
        system._index.update(ref_b, _vec("B"))
        in_flight = np.asarray(system.vector_of(ref_b))
        faultpoints.crash_at(point)
        with pytest.raises(InjectedCrash):
            store.log_upsert([ref_b], in_flight[None, :])
        faultpoints.disarm_all()
        store.close()
        recovered = _recover_state(tmp_path / "store")
        expected = dict(oracle)
        if point != "wal.append.before_write":
            # The frame reached the file before the simulated death, so
            # replay legitimately includes the in-flight record; standard
            # WAL semantics allow a durable-but-unacknowledged suffix.
            expected[ref_b] = in_flight
        _assert_state(recovered, expected)
        assert not fsck_store(tmp_path / "store")["problems"]

    @pytest.mark.parametrize("point", CHECKPOINT_POINTS)
    def test_crash_during_checkpoint_loses_nothing(self, tmp_path, point):
        system, refs, store, oracle = self._base(tmp_path)
        ref_b = refs[1]
        system._index.update(ref_b, _vec("B"))
        vector_b = np.asarray(system.vector_of(ref_b))
        store.log_upsert([ref_b], vector_b[None, :])  # acknowledged
        oracle[ref_b] = vector_b
        faultpoints.crash_at(point)
        with pytest.raises(InjectedCrash):
            store.checkpoint(system)
        faultpoints.disarm_all()
        store.close()
        # Whether the crash landed before or after the manifest replace,
        # the acknowledged history must survive — from the old manifest +
        # WAL replay, or from the freshly published segment.
        recovered = _recover_state(tmp_path / "store")
        _assert_state(recovered, oracle)
        assert not fsck_store(tmp_path / "store")["problems"]

    @pytest.mark.parametrize("point", CHECKPOINT_POINTS)
    def test_recovered_store_checkpoints_cleanly_after_crash(self, tmp_path, point):
        """Recovery must yield a store that can absorb the next checkpoint."""
        system, refs, store, oracle = self._base(tmp_path)
        faultpoints.crash_at(point)
        with pytest.raises(InjectedCrash):
            store.checkpoint(system)
        faultpoints.disarm_all()
        store.close()
        recovered = DiscoveryService.load_durable(tmp_path / "store")
        recovered.checkpoint()
        recovered.close()
        report = fsck_store(tmp_path / "store")
        assert not report["problems"]
        _assert_state(_recover_state(tmp_path / "store"), oracle)


class TestAtomicArtifactSave:
    """``save`` over an existing store: the manifest publish is all-or-nothing."""

    def test_crash_before_replace_preserves_previous_artifact(self, tmp_path):
        system, refs = _make_engine()
        path = tmp_path / "store"
        service = DiscoveryService(engine=system)
        service.save(path)
        system._index.update(refs[0], _vec("clobber"))
        faultpoints.crash_at("manifest.publish.before_replace")
        with pytest.raises(InjectedCrash):
            service.save(path)
        faultpoints.disarm_all()
        restored = DiscoveryService.load_durable(path)
        restored.close()
        assert set(restored.engine.indexed_refs) == set(refs)
        # The new segment never replaced the good manifest: the restored
        # vector is the original, not the clobbered one.
        assert not np.array_equal(
            np.asarray(restored.engine.vector_of(refs[0])),
            np.asarray(system.vector_of(refs[0])),
        )

    def test_crash_after_replace_leaves_loadable_artifact(self, tmp_path):
        system, refs = _make_engine()
        path = tmp_path / "store"
        service = DiscoveryService(engine=system)
        service.save(path)
        system._index.update(refs[0], _vec("clobber"))
        faultpoints.crash_at("manifest.publish.after_replace")
        with pytest.raises(InjectedCrash):
            service.save(path)
        faultpoints.disarm_all()
        restored = DiscoveryService.load_durable(path)
        restored.close()
        assert set(restored.engine.indexed_refs) == set(refs)
        assert np.array_equal(
            np.asarray(restored.engine.vector_of(refs[0])),
            np.asarray(system.vector_of(refs[0])),
        )
