"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``discover``
    Load a directory of CSV files as one warehouse, index it, and print the
    top-k joinable columns for a query column (``table.column``).
``serve``
    Index a CSV directory and expose it over JSON-over-HTTP
    (``/search``, ``/index/add``, ``/index/drop``, ``/stats``,
    ``/healthz``).
``demo``
    Run the Joey walkthrough end to end on the Sigma Sample Database.
``corpus-stats``
    Print the Table-1-style statistics of the built-in corpora.
``index`` / ``query``
    Build a persistent index artifact from a CSV directory, then query it
    later without re-scanning.
``graph``
    Build the join graph over a CSV directory, answer multi-hop path
    queries (``--src``/``--dst``), or export it as DOT/JSON.

All commands route through the :class:`~repro.service.DiscoveryService`
facade — the same code path applications are expected to use.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.config import WarpGateConfig
from repro.core.lookup import LookupService
from repro.embedding.registry import available_models
from repro.errors import ReproError
from repro.service import DiscoveryService, serve
from repro.storage.csv_codec import read_csv_file
from repro.storage.schema import ColumnRef
from repro.warehouse.catalog import Warehouse
from repro.warehouse.connector import WarehouseConnector

__all__ = ["main", "build_parser"]


def _warehouse_from_csv_dir(directory: Path, database: str = "lake") -> Warehouse:
    """Load every ``*.csv`` under ``directory`` into one warehouse."""
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise ReproError(f"no CSV files found in {directory}")
    warehouse = Warehouse(directory.name or "csv-lake")
    for path in paths:
        warehouse.add_table(database, read_csv_file(path))
    return warehouse


def _parse_query_ref(text: str, database: str = "lake") -> ColumnRef:
    ref = ColumnRef.parse(text)
    if not ref.database:
        ref = ColumnRef(database, ref.table, ref.column)
    return ref


def _config_from_args(args: argparse.Namespace) -> WarpGateConfig:
    return WarpGateConfig(
        threshold=args.threshold,
        sample_size=args.sample_size,
        model_name=args.model,
        coalesce=not getattr(args, "no_coalesce", False),
        coalesce_max_batch=getattr(args, "max_batch", 32),
        coalesce_max_wait_us=getattr(args, "max_wait_us", 500),
        query_cache_size=getattr(args, "query_cache_size", 4096),
        durable_dir=getattr(args, "durable_dir", "") or None,
        durable_fsync=getattr(args, "fsync", "always"),
        checkpoint_every=getattr(args, "checkpoint_every", 256),
        default_deadline_ms=getattr(args, "deadline_ms", 0),
    )


def cmd_discover(args: argparse.Namespace) -> int:
    warehouse = _warehouse_from_csv_dir(Path(args.directory))
    service = DiscoveryService(_config_from_args(args))
    report = service.open(WarehouseConnector(warehouse))
    print(f"indexed {report.columns_indexed} columns from {args.directory}")
    query = _parse_query_ref(args.query)
    response = service.search(query, args.k)
    if not response.candidates:
        print(f"no joinable columns found for {query} (threshold {args.threshold})")
        return 1
    print(response.describe())
    if args.lookup:
        lookup = LookupService(service)
        for recommendation in lookup.recommend(query, k=min(args.k, 3)):
            rate = lookup.match_rate(query, recommendation.candidate)
            print(f"  verified match rate vs {recommendation.candidate}: {rate:.0%}")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    warehouse = _warehouse_from_csv_dir(Path(args.directory))
    service = DiscoveryService(_config_from_args(args))
    report = service.open(WarehouseConnector(warehouse))
    artifact = service.save(args.output)
    print(
        f"indexed {report.columns_indexed} columns; artifact written to {artifact}"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    # Re-attach the CSV lake so the query column can be scanned and embedded.
    warehouse = _warehouse_from_csv_dir(Path(args.directory))
    service = DiscoveryService.load(
        args.artifact, connector=WarehouseConnector(warehouse)
    )
    query = _parse_query_ref(args.query)
    response = service.search(query, args.k)
    if not response.candidates:
        print(f"no joinable columns found for {query}")
        return 1
    print(response.describe())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    warehouse = _warehouse_from_csv_dir(Path(args.directory))
    config = _config_from_args(args)
    if config.durable_dir and (Path(config.durable_dir) / "MANIFEST").exists():
        # A previous run (clean or crashed) left a durable store here:
        # recover it instead of re-indexing the corpus over it.
        service = DiscoveryService.load_durable(
            config.durable_dir, connector=WarehouseConnector(warehouse)
        )
        report = service.recovery_report or {}
        print(
            f"recovered {report.get('recovered_columns', 0)} columns from "
            f"{config.durable_dir} (replayed "
            f"{report.get('wal_records_replayed', 0)} WAL record(s), "
            f"discarded {report.get('torn_tail_bytes', 0)} torn byte(s))"
        )
    else:
        service = DiscoveryService(config)
        report = service.open(WarehouseConnector(warehouse))
        print(f"indexed {report.columns_indexed} columns from {args.directory}")
        if config.durable_dir:
            print(f"durable store established at {config.durable_dir}")
    serve(
        service,
        args.host,
        args.port,
        workers=args.workers,
        admission_queue_depth=args.admission_queue_depth,
        max_body_bytes=args.max_body_bytes,
        body_read_timeout_s=args.body_timeout,
    )
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.durability import fsck_store

    report = fsck_store(args.directory)
    manifest = report["manifest"]
    if manifest is not None:
        print(
            f"manifest seq {manifest['manifest_seq']}: "
            f"{manifest['segments']} segment(s), "
            f"wal_applied_seq {manifest['wal_applied_seq']}"
        )
    wal = report["wal"]
    print(
        f"wal: {wal['records']} replayable record(s), "
        f"torn tail {wal['torn_tail_bytes']} byte(s)"
    )
    for warning in report["warnings"]:
        print(f"warning: {warning}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    if args.recover and not report["problems"]:
        service = DiscoveryService.load_durable(args.directory)
        recovery = service.recovery_report or {}
        print(
            f"recovery ok: {recovery.get('recovered_columns', 0)} columns "
            f"({recovery.get('wal_records_replayed', 0)} WAL record(s) "
            "replayed)"
        )
        if args.checkpoint:
            manifest = service.checkpoint()
            print(
                f"checkpointed: manifest seq {manifest['manifest_seq']}, "
                "WAL truncated"
            )
        service.close()
    print("store is clean" if report["clean"] else "store needs attention")
    return 0 if not report["problems"] else 1


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.datasets.sigma import JOEY_QUERY, generate_sigma_sample_database

    corpus = generate_sigma_sample_database(with_snapshots=False)
    service = DiscoveryService()
    service.open(corpus.connector())
    lookup = LookupService(service)
    query = ColumnRef(*JOEY_QUERY)
    print(f"query: {query}")
    for recommendation in lookup.recommend(query, k=args.k):
        print(f"  {recommendation}")
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    from repro.eval.report import render_table
    from repro.graph.paths import format_table

    warehouse = _warehouse_from_csv_dir(Path(args.directory))
    service = DiscoveryService(_config_from_args(args))
    report = service.open(WarehouseConnector(warehouse))
    if args.action == "paths":
        if not args.src or not args.dst:
            print("error: 'graph paths' requires --src and --dst", file=sys.stderr)
            return 2
        paths = service.find_paths(
            args.src,
            args.dst,
            max_hops=args.max_hops,
            limit=args.limit,
            combiner=args.combiner,
        )
        if not paths:
            print(
                f"no join path from {args.src} to {args.dst} "
                f"within {args.max_hops} hops"
            )
            return 1
        for path in paths:
            print(f"{path.score:.4f}  {path.describe()}")
        return 0
    if args.action == "export":
        text = service.export_graph(args.format)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
            print(f"graph written to {args.output}")
        else:
            print(text, end="")
        return 0
    stats = service.graph_stats()
    print(
        f"indexed {report.columns_indexed} columns; join graph has "
        f"{stats['tables']} tables and {stats['edges']} edges "
        f"(edge threshold {stats['edge_threshold']})"
    )
    edges = service.join_graph.edges()[:10]
    if edges:
        rows = [
            [
                format_table(edge.left.table_key),
                format_table(edge.right.table_key),
                f"{edge.left.column}~{edge.right.column}",
                f"{edge.cosine:.3f}",
                "-" if edge.jaccard is None else f"{edge.jaccard:.3f}",
                f"{edge.confidence:.3f}",
            ]
            for edge in edges
        ]
        print(
            render_table(
                ["left table", "right table", "columns", "cosine", "jaccard", "conf"],
                rows,
                title="Top join edges",
            )
        )
    return 0


def cmd_corpus_stats(args: argparse.Namespace) -> int:
    from repro.datasets.nextiajd import TESTBED_PROFILES, generate_testbed
    from repro.datasets.sigma import generate_sigma_sample_database
    from repro.datasets.spider import generate_spider_corpus
    from repro.eval.report import render_table

    rows = []
    keys = args.corpora.split(",") if args.corpora else [*TESTBED_PROFILES, "spider", "sigma"]
    for key in keys:
        if key in TESTBED_PROFILES:
            corpus = generate_testbed(key)
        elif key == "spider":
            corpus = generate_spider_corpus()
        elif key == "sigma":
            corpus = generate_sigma_sample_database()
        else:
            raise ReproError(f"unknown corpus {key!r}")
        summary = corpus.summary_row()
        rows.append([summary[k] for k in ("corpus", "tables", "columns", "avg_rows", "queries", "avg_answers")])
    print(
        render_table(
            ["corpus", "tables", "columns", "avg rows", "queries", "avg answers"],
            rows,
            title="Corpus statistics (cf. Table 1)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The complete argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WarpGate semantic join discovery (CIDR 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_model_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("-k", type=int, default=5, help="results per query")
        sub.add_argument(
            "--threshold", type=float, default=0.7, help="cosine similarity floor"
        )
        sub.add_argument(
            "--sample-size", type=int, default=None, help="rows sampled per column"
        )
        sub.add_argument(
            "--model",
            default="webtable",
            choices=available_models(),
            help="embedding model",
        )

    discover = subparsers.add_parser(
        "discover", help="find joinable columns in a directory of CSV files"
    )
    discover.add_argument("directory", help="directory containing *.csv files")
    discover.add_argument("query", help="query column as table.column")
    discover.add_argument(
        "--lookup", action="store_true", help="verify match rates of the top hits"
    )
    add_model_args(discover)
    discover.set_defaults(handler=cmd_discover)

    index = subparsers.add_parser("index", help="build a persistent index artifact")
    index.add_argument("directory", help="directory containing *.csv files")
    index.add_argument("output", help="artifact path (.npz)")
    add_model_args(index)
    index.set_defaults(handler=cmd_index)

    query = subparsers.add_parser("query", help="query a saved index artifact")
    query.add_argument("artifact", help="artifact path (.npz)")
    query.add_argument("directory", help="the CSV directory the artifact indexed")
    query.add_argument("query", help="query column as table.column")
    add_model_args(query)
    query.set_defaults(handler=cmd_query)

    serve_cmd = subparsers.add_parser(
        "serve", help="index a CSV directory and serve it over HTTP"
    )
    serve_cmd.add_argument("directory", help="directory containing *.csv files")
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks a free port)"
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=32,
        help="fixed HTTP worker pool size (concurrent persistent connections)",
    )
    serve_cmd.add_argument(
        "--admission-queue-depth",
        type=int,
        default=None,
        help="accepted connections the admission queue holds before the "
        "server sheds new ones with 503 + Retry-After (default: 2x "
        "--workers; health probes are always answered)",
    )
    serve_cmd.add_argument(
        "--max-body-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="largest accepted request body; a bigger Content-Length is "
        "rejected with 413 before any of it is read",
    )
    serve_cmd.add_argument(
        "--body-timeout",
        type=float,
        default=10.0,
        help="seconds a client gets to deliver its declared request body "
        "before the read is abandoned with 408 (slow-client defense)",
    )
    serve_cmd.add_argument(
        "--deadline-ms",
        type=int,
        default=0,
        help="default per-request deadline in milliseconds; expiry "
        "answers 504 without probing the index (0 = no deadline; "
        "clients override per request via X-Deadline-Ms or "
        "deadline_ms in the body)",
    )
    serve_cmd.add_argument(
        "--no-coalesce",
        action="store_true",
        help="serve each /search alone instead of micro-batching concurrent ones",
    )
    serve_cmd.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="requests coalesced into one batched index probe",
    )
    serve_cmd.add_argument(
        "--max-wait-us",
        type=int,
        default=500,
        help="microseconds a coalescing leader waits for its batch to fill",
    )
    serve_cmd.add_argument(
        "--query-cache-size",
        type=int,
        default=4096,
        help="entries in the generation-keyed query-result cache (0 disables)",
    )
    serve_cmd.add_argument(
        "--durable-dir",
        default="",
        help="directory for the crash-safe index store (WAL + segments + "
        "manifest); mutations are durable once acknowledged, and a "
        "restart recovers the store instead of re-indexing "
        "(single-process only)",
    )
    serve_cmd.add_argument(
        "--fsync",
        default="always",
        choices=("always", "never"),
        help="WAL fsync policy: 'always' makes every acknowledged "
        "mutation crash-durable, 'never' leaves appends OS-buffered",
    )
    serve_cmd.add_argument(
        "--checkpoint-every",
        type=int,
        default=256,
        help="WAL records between automatic checkpoints (0 = never "
        "auto-compact)",
    )
    add_model_args(serve_cmd)
    serve_cmd.set_defaults(handler=cmd_serve)

    fsck = subparsers.add_parser(
        "fsck",
        help="validate a durable index store (manifest, segment checksums, "
        "WAL); exit 1 on hard corruption",
    )
    fsck.add_argument("directory", help="durable store directory")
    fsck.add_argument(
        "--recover",
        action="store_true",
        help="additionally run full recovery (segment load + WAL replay) "
        "and report what it rebuilds",
    )
    fsck.add_argument(
        "--checkpoint",
        action="store_true",
        help="with --recover: compact the recovered state into a fresh "
        "segment and truncate the WAL (clears torn tails and orphans)",
    )
    fsck.set_defaults(handler=cmd_fsck)

    graph = subparsers.add_parser(
        "graph", help="build, query, or export the join graph of a CSV directory"
    )
    graph.add_argument("directory", help="directory containing *.csv files")
    graph.add_argument(
        "action",
        nargs="?",
        default="build",
        choices=("build", "paths", "export"),
        help="build: print graph stats; paths: rank --src to --dst; export: DOT/JSON",
    )
    graph.add_argument("--src", default="", help="source table as db.table")
    graph.add_argument("--dst", default="", help="destination table as db.table")
    graph.add_argument(
        "--max-hops", type=int, default=3, help="maximum join-path length in edges"
    )
    graph.add_argument("--limit", type=int, default=5, help="paths returned per query")
    graph.add_argument(
        "--combiner",
        default="product",
        choices=("product", "min"),
        help="how edge confidences combine into a path score",
    )
    graph.add_argument(
        "--format", default="dot", choices=("dot", "json"), help="export format"
    )
    graph.add_argument(
        "--output", default="", help="export target file (default: stdout)"
    )
    add_model_args(graph)
    graph.set_defaults(handler=cmd_graph)

    demo = subparsers.add_parser("demo", help="run the Joey walkthrough")
    demo.add_argument("-k", type=int, default=4)
    demo.set_defaults(handler=cmd_demo)

    stats = subparsers.add_parser("corpus-stats", help="print corpus statistics")
    stats.add_argument(
        "--corpora", default="", help="comma-separated subset (default: all)"
    )
    stats.set_defaults(handler=cmd_corpus_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
