"""The benchmark's child process: builds the corpus, opens the shipped
service, then either serves it over HTTP (``serve``) or replays the
workload in-process under trace (``trace``).

Invoked by ``bench/run.py`` as ``python bench/child.py '<json spec>'``.
It talks to the parent in JSON lines: one ``ready`` line on stdout when
set-up is done (the parent times spawn -> ready as ``setup_s``), then one
reply per command line read from stdin (``recover``, ``quit``).
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Replace the script directory: bench/trace.py must not shadow the stdlib.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bench import corpora  # noqa: E402
from bench.stats import median, percentile  # noqa: E402
from bench.trace import Tracer, durations_ms, self_times_ms  # noqa: E402
from bench.workload import (  # noqa: E402
    CORPUS_SEED,
    FULL,
    SMOKE,
    SNAPSHOT_DATABASE,
    WORKLOADS,
    K,
    Plan,
    Sizes,
    Workload,
    build_plan,
)
from repro.core.config import WarpGateConfig  # noqa: E402
from repro.durability import DurableIndexStore  # noqa: E402
from repro.index.lsh import SimHashLSHIndex  # noqa: E402
from repro.service.discovery import DiscoveryService  # noqa: E402
from repro.service.server import make_server  # noqa: E402
from repro.storage.column import Column  # noqa: E402
from repro.storage.schema import ColumnRef  # noqa: E402
from repro.storage.table import Table  # noqa: E402
from repro.warehouse.catalog import Warehouse  # noqa: E402
from repro.warehouse.connector import WarehouseConnector  # noqa: E402
from repro.warehouse.sampling import make_sampler  # noqa: E402

_SNAPSHOT_TEMPLATES = 8
_SNAPSHOT_COLUMNS = 6
_BATCH_BLOCK = 32
_RECOVERIES_MIN, _RECOVERIES_MAX, _RECOVERIES_BUDGET_S = 3, 25, 0.8


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


@dataclass
class Context:
    workload: Workload
    sizes: Sizes
    seed: int
    connector: WarehouseConnector
    service: DiscoveryService
    plan: Plan
    indexed_refs: list[str]
    templates: list[tuple[list[str], str]]
    oracle: dict[str, list[str]]
    report: dict[str, object]


def _snapshot_templates(
    warehouse: Warehouse, indexed: set[str], database: str, rows: int
) -> list[tuple[list[str], str]]:
    """Six indexed columns of a few base tables, serialized once for /index/add."""
    tables = [table for name, table in warehouse.table_refs() if name == database]
    random.Random(f"snapshots:{CORPUS_SEED}").shuffle(tables)
    templates = []
    for table in tables:
        columns = [
            column
            for column in table.columns
            if f"{database}.{table.name}.{column.name}" in indexed
        ][:_SNAPSHOT_COLUMNS]
        if len(columns) < _SNAPSHOT_COLUMNS:
            continue
        payload = [
            {"name": column.name, "values": list(column.head(rows))} for column in columns
        ]
        templates.append(([column.name for column in columns], json.dumps(payload)))
        if len(templates) == _SNAPSHOT_TEMPLATES:
            break
    if not templates:
        raise RuntimeError("no base table has six indexed columns to snapshot")
    return templates


def _oracle(service: DiscoveryService, probe_set: list[str], threshold: float) -> dict:
    """Exact brute-force cosine top-k with the program's own embeddings."""
    engine = service.engine
    refs = engine.indexed_refs
    matrix = np.stack([engine.vector_of(ref) for ref in refs])
    table_ids: dict[tuple[str, str], int] = {}
    owner = np.array([table_ids.setdefault(ref.table_key, len(table_ids)) for ref in refs])
    answers = {}
    for text in probe_set:
        query = ColumnRef.parse(text)
        vector, _timing = engine.embed_query(query)
        scores = matrix @ vector.astype(matrix.dtype)
        keep = scores >= threshold
        if query.table_key in table_ids:
            keep &= owner != table_ids[query.table_key]
        rows = np.flatnonzero(keep)
        top = rows[np.argsort(-scores[rows], kind="stable")[:K]]
        answers[text] = [str(refs[row]) for row in top]
    return answers


def set_up(spec: dict, tracer: Tracer | None = None) -> Context:
    """Everything between process start and a service that can answer."""
    workload = WORKLOADS[spec["workload"]]
    sizes = SMOKE if spec["smoke"] else FULL
    seed = int(spec["seed"])
    clock = time.perf_counter

    start = clock()
    if workload.corpus == "lake":
        warehouse = corpora.lake(CORPUS_SEED, rows_scale=sizes.lake_rows_scale, tables=sizes.lake_tables)
        sample_size = sizes.sample_size
    else:
        warehouse = corpora.wide(CORPUS_SEED, columns=sizes.wide_columns)
        sample_size = None
    corpus_gen_s = clock() - start

    # A throw-away open of one table trains the embedding model and loads
    # BLAS, so the timed open() below is indexing work only.
    start = clock()
    database, first_table = next(iter(warehouse.table_refs()))
    throwaway = Warehouse("throwaway")
    throwaway.add_table(database, first_table)
    with_model = DiscoveryService(WarpGateConfig(sample_size=sample_size))
    with_model.open(WarehouseConnector(throwaway))
    with_model.close()
    model_load_s = clock() - start

    config = WarpGateConfig(
        sample_size=sample_size,
        durable_dir=spec["durable_dir"],
        durable_fsync="always",
        checkpoint_every=sizes.checkpoint_every,
    )
    # The connector's simulated unload latency is never slept, only added
    # to the reported timing block; zero it so that block is wall time.
    connector = WarehouseConnector(
        warehouse, base_latency_s=0.0, bandwidth_bytes_per_s=float("inf")
    )
    service = DiscoveryService(config)
    if tracer is not None:
        _wrap_layers(tracer, connector, service)
        tracer.phase = "open"
    start = clock()
    index_report = service.open(connector)
    open_s = clock() - start

    start = clock()
    extracts = 0
    if workload.corpus == "lake":
        extracts = corpora.add_extracts(
            warehouse,
            seed,
            copies=sizes.extract_copies,
            fraction=sizes.extract_fraction,
            min_rows=sizes.sample_size,
        )
    corpus_gen_s += clock() - start
    digest = corpora.digest(warehouse)

    indexed_refs = [str(ref) for ref in service.engine.indexed_refs]
    plan = build_plan(workload, seed, indexed_refs, sizes)
    templates = _snapshot_templates(
        warehouse, set(indexed_refs), plan.base_database, sample_size or 240
    )
    if tracer is not None:
        tracer.phase = "oracle"
    start = clock()
    oracle = _oracle(service, plan.probe_set, config.threshold)
    oracle_s = clock() - start

    report = {
        "corpus_digest": digest,
        "corpus_gen_s": corpus_gen_s,
        "model_load_s": model_load_s,
        "open_s": open_s,
        "oracle_s": oracle_s,
        "columns_indexed": index_report.columns_indexed,
        "columns_skipped": index_report.columns_skipped,
        "extract_tables": extracts,
        "threshold": config.threshold,
    }
    return Context(
        workload, sizes, seed, connector, service, plan, indexed_refs, templates, oracle, report
    )


# -- serve ----------------------------------------------------------------------


def _recover(command: dict) -> dict:
    """Recover a killed server's store and check it against what was acknowledged.

    Recovery reads the store and rewrites nothing, so it is repeated and the
    median reported; the model is already loaded in this process, which
    leaves manifest + segment + WAL replay + index rebuild as the cost.
    The first, untimed recovery pays the lazy imports and the cold file reads.
    """
    DiscoveryService.load_durable(command["dir"]).close()
    timings: list[float] = []
    while len(timings) < _RECOVERIES_MIN or (
        sum(timings) < _RECOVERIES_BUDGET_S and len(timings) < _RECOVERIES_MAX
    ):
        # Start each repeat without the previous one's garbage: a full
        # collection landing inside a 0.2 s recovery doubled it at random.
        gc.collect()
        start = time.perf_counter()
        recovered = DiscoveryService.load_durable(command["dir"])
        timings.append(time.perf_counter() - start)
        recovered.close()
    recovered = DiscoveryService.load_durable(command["dir"])
    engine = recovered.engine
    problems = []
    columns = recovered.stats().indexed_columns
    if columns != command["expect_columns"]:
        problems.append(
            f"recovered {columns} columns, last acknowledgement said "
            f"{command['expect_columns']}"
        )
    for text in command["live"]:
        ref = ColumnRef.parse(text)
        if not engine.is_column_indexed(ref):
            problems.append(f"live snapshot column {text} was not recovered")
        # Unbounded k: base columns and sibling snapshots tie with it at 1.0.
        elif ref not in engine.search_vector(engine.vector_of(ref), columns, threshold=0.99).refs:
            problems.append(f"live snapshot column {text} is not searchable")
    for text in command["dropped"]:
        if engine.is_column_indexed(ColumnRef.parse(text)):
            problems.append(f"dropped snapshot column {text} came back")
    report = dict(recovered.recovery_report or {})
    recovered.close()
    return {
        "event": "recovered",
        "recover_s": median(timings),
        "columns": columns,
        "problems": problems,
        "report": report,
    }


def serve(spec: dict) -> None:
    context = set_up(spec)
    with make_server(context.service, port=0) as server:
        emit(
            {
                "event": "ready",
                "port": server.server_address[1],
                "setup": context.report,
                "indexed_refs": context.indexed_refs,
                "oracle": context.oracle,
                "templates": context.templates,
            }
        )
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "recover":
                emit(_recover(command))
            elif command["cmd"] == "quit":
                break
            else:
                raise ValueError(f"unknown command {command['cmd']!r}")
    context.service.close()


# -- trace ----------------------------------------------------------------------


def _wrap_layers(tracer: Tracer, connector: WarehouseConnector, service: DiscoveryService) -> None:
    """Record a span around each layer's public entry point on these instances."""
    engine = service.engine
    tracer.wrap(
        connector,
        "scan_column",
        "warehouse.scan_column",
        annotate=lambda result: {
            "rows": result[1].rows_fetched,
            "bytes": result[1].scanned_bytes,
        },
    )
    tracer.wrap(
        engine.encoder,
        "encode_batch",
        "embedding.encode_batch",
        annotate=lambda result: {"columns": int(result[0].shape[0])},
    )
    tracer.wrap(engine, "search", "core.search")
    for method in ("open", "search", "add_table", "drop_table", "refresh_column", "checkpoint"):
        tracer.wrap(service, method, f"service.{method}")


def _standalone_index(tracer: Tracer, service: DiscoveryService) -> SimHashLSHIndex:
    """The configured index type alone, loaded with the served vectors."""
    engine, config = service.engine, service.engine.config
    refs = list(engine.indexed_refs)
    matrix = np.stack([engine.vector_of(ref) for ref in refs])
    index = SimHashLSHIndex(
        config.dim, n_bits=config.n_bits, n_bands=config.n_bands, threshold=config.threshold
    )
    tracer.wrap(index, "bulk_load", "index.bulk_load")
    tracer.wrap(
        index,
        "query",
        "index.query",
        annotate=lambda found: {
            "returned": len(found),
            "candidates": index.last_candidate_count,
        },
    )
    tracer.wrap(index, "search_batch", "index.search_batch")
    tracer.wrap(index, "add", "index.add")
    tracer.wrap(index, "remove", "index.remove")
    index.bulk_load(refs, matrix)
    return index


def _replay(context: Context, tracer: Tracer, per_slice: int, scratch: Path) -> dict:
    """Replay client 0's stream, decomposed then composed, on fresh slices.

    The encoder's value caches make a second encounter of a column cheaper,
    so no two phases ever see the same part of the stream.
    """
    service, connector = context.service, context.connector
    engine, config = service.engine, service.engine.config
    stream = context.plan.streams[0]
    sampler = (
        make_sampler(config.sampling_strategy, config.sample_size)
        if config.sample_size is not None
        else None
    )
    requests = iter(range(1, 1 << 30))

    tracer.phase = "index-build"
    index = _standalone_index(tracer, service)

    # What the HTTP warm-up does for the server child: hot caches, and on a
    # Zipf stream a query cache that already holds the popular columns.
    tracer.phase = "warmup"
    warm = per_slice // 2
    if context.workload.stream == "zipf":
        warm = max(warm, 4 * context.sizes.hot_pool)
    for _ in range(warm):
        service.search(stream.next(), K)

    tracer.phase = "decomposed"
    vectors = []
    for _ in range(per_slice):
        tracer.request = next(requests)
        ref = ColumnRef.parse(stream.next())
        column, _receipt = connector.scan_column(ref, sampler=sampler)
        matrix, _stats = engine.encoder.encode_batch([column])
        index.query(matrix[0], K + 16, threshold=config.threshold, exclude=ref)
        vectors.append(matrix[0])

    tracer.phase = "core"
    for _ in range(per_slice):
        tracer.request = next(requests)
        engine.search(ColumnRef.parse(stream.next()), K)

    tracer.phase = "service"
    query_cache = service.query_cache
    for _ in range(per_slice):
        tracer.request = next(requests)
        mark = len(tracer.spans)
        hits = query_cache.stats()["hits"]
        service.search(stream.next(), K)
        tracer.spans[mark]["qcache_hit"] = query_cache.stats()["hits"] > hits

    tracer.phase = "index"
    tracer.request = None
    block = np.stack(vectors)
    for first in range(0, len(vectors) - _BATCH_BLOCK + 1, _BATCH_BLOCK):
        index.search_batch(block[first : first + _BATCH_BLOCK], K + 16)
    scratch_keys = [ColumnRef("scratch", "t", f"c{position}") for position in range(64)]
    for key, vector in zip(scratch_keys, block):
        index.add(key, vector)
    for key, _vector in zip(scratch_keys, block):
        index.remove(key)

    tracer.phase = "writes"
    chooser = random.Random(f"trace-writes:{context.seed}")
    live: list[str] = []
    for cycle in range(max(4, per_slice // 16)):
        names, columns_json = context.templates[cycle % len(context.templates)]
        table = Table(
            f"traced_{cycle:04d}",
            [Column(entry["name"], entry["values"]) for entry in json.loads(columns_json)],
        )
        tracer.request = next(requests)
        service.refresh_column(chooser.choice(context.plan.refresh_pool))
        tracer.request = next(requests)
        service.add_table(SNAPSHOT_DATABASE, table)
        live.append(table.name)
        tracer.request = next(requests)
        service.refresh_column(chooser.choice(context.plan.refresh_pool))
        if len(live) > 2:
            tracer.request = next(requests)
            service.drop_table(SNAPSHOT_DATABASE, live.pop(0))

    tracer.phase = "durability"
    tracer.request = None
    appends = 64
    refs = scratch_keys[:_SNAPSHOT_COLUMNS]
    payload = block[:_SNAPSHOT_COLUMNS].astype(np.float32)
    with DurableIndexStore(scratch, fsync="always") as store:
        tracer.wrap(store, "log_upsert", "durability.log_upsert")
        for _ in range(appends):
            store.log_upsert(refs, payload)
        wal_bytes = store.wal_path.stat().st_size
    manifest = service.checkpoint()
    segment = manifest["segments"][0]

    return _layer_metrics(
        tracer.spans,
        arena=index.arena,
        wal_bytes_per_mutation=wal_bytes / appends,
        store_bytes_per_column=segment["bytes"] / max(1, segment["rows"]),
    )


def _layer_metrics(spans: list[dict], *, arena, wal_bytes_per_mutation, store_bytes_per_column) -> dict:
    """Per-layer numbers derived from the recorded spans."""

    def p50(name: str, **where) -> float:
        return median(durations_ms(spans, name, **where))

    def p95(name: str, **where) -> float:
        return percentile(durations_ms(spans, name, **where), 95)

    scans = [s for s in spans if s["name"] == "warehouse.scan_column" and s["phase"] == "decomposed"]
    probes = [s for s in spans if s["name"] == "index.query"]
    candidates = sum(s["candidates"] for s in probes)
    build = [s for s in spans if s["name"] == "embedding.encode_batch" and s["phase"] == "open"]
    build_s = sum(s["t1"] - s["t0"] for s in build)
    bulk = next(s for s in spans if s["name"] == "index.bulk_load")
    batches = durations_ms(spans, "index.search_batch")
    served = [s for s in spans if s["name"] == "service.search" and s["phase"] == "service"]
    miss_share = sum(not s["qcache_hit"] for s in served) / len(served)

    probe_p50 = p50("index.query")
    core_rest = median(self_times_ms(spans, "core.search", phase="core"))
    service_rest = median(self_times_ms(spans, "service.search", phase="service"))
    return {
        "warehouse.scan_ms_p50": p50("warehouse.scan_column", phase="decomposed"),
        "warehouse.rows_per_scan": sum(s["rows"] for s in scans) / len(scans),
        "warehouse.bytes_per_scan": sum(s["bytes"] for s in scans) / len(scans),
        "embedding.encode_ms_p50": p50("embedding.encode_batch", phase="decomposed"),
        "embedding.encode_ms_p95": p95("embedding.encode_batch", phase="decomposed"),
        "embedding.build_cols_per_s": sum(s["columns"] for s in build) / build_s,
        "index.probe_ms_p50": probe_p50,
        "index.probe_ms_p95": p95("index.query"),
        "index.batch_per_query_ms": median(batches) / _BATCH_BLOCK,
        "index.candidate_fraction": candidates / len(probes) / len(arena),
        "index.returned_per_candidate": sum(s["returned"] for s in probes) / max(1, candidates),
        "index.bulk_load_cols_per_s": len(arena) / (bulk["t1"] - bulk["t0"]),
        "index.add_ms_p50": p50("index.add"),
        "index.remove_ms_p50": p50("index.remove"),
        "index.bytes_per_column": (arena.matrix.nbytes + arena.signatures.nbytes) / arena.size,
        # What is left of WarpGate.search once scan and encode (its child
        # spans) and a stand-alone probe are taken out: its own glue.
        "core.search_ms_p50": p50("core.search", phase="core"),
        "core.search_self_ms_p50": core_rest - probe_p50,
        "core.open_s": p50("service.open") / 1e3,
        # DiscoveryService.search minus its child spans still contains the
        # engine's probe + glue on a query-cache miss; take that out too.
        "service.search_ms_p50": p50("service.search", phase="service"),
        "service.search_self_ms_p50": service_rest - miss_share * core_rest,
        "service.trace_miss_share": miss_share,
        "service.add_table_ms_p50": p50("service.add_table"),
        "service.drop_table_ms_p50": p50("service.drop_table"),
        "service.refresh_ms_p50": p50("service.refresh_column"),
        "durability.wal_append_ms_p50": p50("durability.log_upsert"),
        "durability.checkpoint_s": p50("service.checkpoint") / 1e3,
        "durability.wal_bytes_per_mutation": wal_bytes_per_mutation,
        "durability.store_bytes_per_column": store_bytes_per_column,
    }


def trace(spec: dict) -> None:
    tracer = Tracer()
    context = set_up(spec, tracer)
    metrics = _replay(context, tracer, int(spec["per_slice"]), Path(spec["scratch_dir"]))
    context.service.close()
    tracer.write(Path(spec["trace_path"]))
    emit({"event": "trace", "setup": context.report, "metrics": metrics, "spans": len(tracer.spans)})


if __name__ == "__main__":
    _spec = json.loads(sys.argv[1])
    {"serve": serve, "trace": trace}[_spec["mode"]](_spec)
