"""Durable stores written before a config field was removed still load:
the loader drops exactly the retired keys — the process-worker pair
(``shard_workers`` / ``worker_transport``) and the shard / int8 four
(``n_shards`` / ``shard_placement`` / ``quantize`` / ``rerank_factor``).

The payload was always saved flat in float32, so a store saved under any
of them restores into the one arena and answers exactly as a freshly built
index does; in particular a store saved under ``quantize=True`` restores
to exact float32 scoring."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.cli import main
from repro.core.config import WarpGateConfig
from repro.service.discovery import DiscoveryService
from repro.warehouse.connector import WarehouseConnector

RETIRED = {
    "shard_workers": 2,
    "worker_transport": "shm",
    "n_shards": 4,
    "shard_placement": "round_robin",
    "quantize": True,
    "rerank_factor": 8,
}


def fresh_service(toy_warehouse, config=None) -> DiscoveryService:
    service = DiscoveryService(config or WarpGateConfig(threshold=0.3))
    service.open(WarehouseConnector(toy_warehouse))
    return service


def assert_answers_like_fresh(restored, toy_warehouse):
    """Every indexed column, as a query, gets the freshly built answer."""
    fresh = fresh_service(toy_warehouse)
    refs = fresh.engine.indexed_refs
    assert sorted(restored.engine.indexed_refs) == sorted(refs)  # saved sorted
    for ref in refs:
        assert restored.search(ref, 5).candidates == fresh.search(ref, 5).candidates


def test_from_saved_drops_only_the_retired_keys():
    config = WarpGateConfig(threshold=0.4)
    assert WarpGateConfig.from_saved({**asdict(config), **RETIRED}) == config
    with pytest.raises(TypeError):
        WarpGateConfig.from_saved({**asdict(config), "bogus": 1})


def test_manifest_with_retired_keys_recovers(tmp_path, toy_warehouse):
    directory = tmp_path / "store"
    config = WarpGateConfig(threshold=0.3).with_durability(str(directory), fsync="never")
    fresh_service(toy_warehouse, config).close()
    manifest = json.loads((directory / "MANIFEST").read_text(encoding="utf-8"))
    manifest["config"].update(RETIRED)
    (directory / "MANIFEST").write_text(json.dumps(manifest), encoding="utf-8")

    recovered = DiscoveryService.load_durable(
        directory, connector=WarehouseConnector(toy_warehouse)
    )
    assert_answers_like_fresh(recovered, toy_warehouse)
    recovered.close()
    assert main(["fsck", str(directory), "--recover"]) == 0
