"""Artifacts and durable stores written before ``shard_workers`` /
``worker_transport`` were removed still load: the loader drops exactly
those two config keys."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import WarpGateConfig
from repro.service.discovery import DiscoveryService
from repro.storage.schema import ColumnRef
from repro.warehouse.connector import WarehouseConnector

RETIRED = {"shard_workers": 2, "worker_transport": "shm"}
QUERY = ColumnRef("db", "customers", "company")


def test_from_saved_drops_only_the_retired_keys():
    config = WarpGateConfig(threshold=0.4, n_shards=2)
    assert WarpGateConfig.from_saved({**asdict(config), **RETIRED}) == config
    with pytest.raises(TypeError):
        WarpGateConfig.from_saved({**asdict(config), "bogus": 1})


def test_artifact_with_retired_keys_loads(tmp_path, toy_warehouse):
    service = DiscoveryService(WarpGateConfig(threshold=0.3, n_shards=2))
    service.open(WarehouseConnector(toy_warehouse))
    before = service.search(QUERY, 5).candidates
    artifact = service.save(tmp_path / "index.npz")
    with np.load(artifact) as archive:
        members = {name: archive[name] for name in archive.files}
    header = json.loads(members["header"].tobytes().decode("utf-8"))
    header["config"].update(RETIRED)
    members["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(artifact, **members)

    restored = DiscoveryService.load(artifact, connector=WarehouseConnector(toy_warehouse))
    assert restored.engine.config == service.engine.config
    assert restored.search(QUERY, 5).candidates == before


def test_manifest_with_retired_keys_recovers(tmp_path, toy_warehouse):
    directory = tmp_path / "store"
    config = WarpGateConfig(threshold=0.3).with_durability(str(directory), fsync="never")
    service = DiscoveryService(config)
    service.open(WarehouseConnector(toy_warehouse))
    before = service.search(QUERY, 5).candidates
    service.close()
    manifest = json.loads((directory / "MANIFEST").read_text(encoding="utf-8"))
    manifest["config"].update(RETIRED)
    (directory / "MANIFEST").write_text(json.dumps(manifest), encoding="utf-8")

    recovered = DiscoveryService.load_durable(
        directory, connector=WarehouseConnector(toy_warehouse)
    )
    assert recovered.search(QUERY, 5).candidates == before
    recovered.close()
    assert main(["fsck", str(directory), "--recover"]) == 0
