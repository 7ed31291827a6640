"""Perf-tracking suite for the columnar index engine.

Not a paper table — this is the repository's own performance trajectory:
build, single-query, and batched-search timings per corpus size, written
as machine-readable JSON (``BENCH_index.json`` at the repo root) so every
PR leaves a comparable baseline.  ``python -m repro bench`` is the
canonical entry point; this module runs the same harness under pytest at
reduced scale and checks the report contract (the structure the CI smoke
job enforces).
"""

from __future__ import annotations

import json

import pytest

from repro.eval.perf import (
    ALL_STAGES,
    append_history,
    run_perf_suite,
    validate_report,
    write_report,
)

# Every stage except the quality matrix: the per-stage tests below pin
# perf contracts and should not pay for a (deterministic) quality run
# each — that stage has its own tests in this module.
_PERF_STAGES = ("results", "embed", "artifact", "serve", "graph")


def test_fast_profile_report_is_valid(tmp_path):
    """The fast profile produces a well-formed, complete report."""
    report = run_perf_suite(profile="fast", repeats=1)
    assert report["stages"] == list(ALL_STAGES)
    assert validate_report(report) == []
    path = write_report(report, tmp_path / "BENCH_index.json")
    assert path.exists()


def test_stage_rows_record_warmup_runs():
    """Every timed stage reports its warm-up-excluded protocol."""
    report = run_perf_suite(
        profile="fast",
        stages=_PERF_STAGES,
        sizes=(200, 300, 400),
        artifact_sizes=(300,),
        serve_sizes=(300,),
        serve_clients=2,
        serve_requests_per_client=8,
        graph_sizes=(400,),
        repeats=1,
        embed_sizes=(200,),
        embed_repeats=1,
        stage_repeats=1,
        dim=32,
        batch_size=8,
    )
    for stage in _PERF_STAGES:
        for row in report[stage]:
            assert row["warmup_runs"] >= 1, (stage, row)


def test_serve_stage_reports_engine_throughput():
    """The serving engine beats thread-per-request even at smoke scale."""
    report = run_perf_suite(
        profile="fast",
        stages=_PERF_STAGES,
        sizes=(500, 1_000, 2_000),
        artifact_sizes=(500,),
        serve_sizes=(2_000,),
        serve_clients=8,
        serve_requests_per_client=16,
        graph_sizes=(),
        repeats=1,
        embed_sizes=(500,),
        embed_repeats=1,
        stage_repeats=1,
    )
    row = report["serve"][-1]
    assert row["clients"] == 8
    assert row["requests"] == 8 * 16
    assert row["qps_engine"] > 0 and row["qps_baseline"] > 0
    # The full engine (pool + keep-alive + coalesce + cache) must never
    # lose to thread-per-request single queries; the committed full
    # profile holds this at >= 2x, CI smoke at >= 1x (shared runners).
    assert row["coalesced_speedup"] >= 1.0
    assert 0.0 <= row["cache_hit_rate"] <= 1.0
    # Fast-path contract: a lone client pays no meaningful coalescing tax
    # (generous smoke bound; the committed baseline pins it within 10%).
    assert row["single_latency_ratio"] < 1.5
    assert isinstance(row["batch_histogram"], dict)


def test_batched_search_amortizes(tmp_path):
    """Even at smoke scale, batched search beats sequential single queries."""
    report = run_perf_suite(
        profile="fast",
        stages=_PERF_STAGES,
        sizes=(1_000, 2_000, 4_000),
        serve_sizes=(),
        graph_sizes=(),
        repeats=2,
    )
    largest = report["results"][-1]
    assert largest["batch_speedup"] > 1.0
    assert 0.0 < largest["candidate_fraction"] < 1.0


def test_artifact_stage_mmap_load_wins(tmp_path):
    """Format-3 mmap cold load beats the compressed format-2 load."""
    report = run_perf_suite(
        profile="fast",
        stages=_PERF_STAGES,
        sizes=(500, 1_000, 2_000),
        artifact_sizes=(2_000,),
        serve_sizes=(),
        graph_sizes=(),
        repeats=1,
        embed_sizes=(500,),
        embed_repeats=1,
        stage_repeats=1,
    )
    row = report["artifact"][-1]
    assert row["load_v3_s"] < row["load_v2_s"]
    assert row["artifact_v2_bytes"] > 0 and row["artifact_v3_bytes"] > 0


def test_history_appends_one_line_per_run(tmp_path):
    """The bench trajectory file gains one well-formed JSON line per run."""
    report = run_perf_suite(
        profile="fast",
        stages=_PERF_STAGES,
        sizes=(200, 300, 400),
        artifact_sizes=(300,),
        serve_sizes=(300,),
        serve_clients=2,
        serve_requests_per_client=8,
        graph_sizes=(400,),
        repeats=1,
        embed_sizes=(200,),
        embed_repeats=1,
        stage_repeats=1,
        dim=32,
        batch_size=8,
    )
    history = tmp_path / "BENCH_history.jsonl"
    append_history(report, history)
    append_history(report, history)
    lines = history.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    entry = json.loads(lines[0])
    assert entry["n_columns_max"] == 400
    assert "timestamp" in entry and "git_sha" in entry
    assert isinstance(entry["serve_qps_engine"], (int, float))
    assert isinstance(entry["serve_coalesced_speedup"], (int, float))
    assert isinstance(entry["graph_incremental_speedup"], (int, float))
    assert isinstance(entry["graph_path_query_ms"], (int, float))
    # Quality and durability headline keys ride every entry; a run that
    # skipped those stages leaves them null and bench-compare skips
    # null metrics.
    assert "quality_hybrid_recall_at_10" in entry
    assert entry["quality_hybrid_recall_at_10"] is None
    assert "durability_recovery_s" in entry
    assert entry["durability_recovery_s"] is None


def test_graph_stage_incremental_beats_full(tmp_path):
    """One-table maintenance must beat a from-scratch rebuild at smoke scale."""
    report = run_perf_suite(
        profile="fast",
        stages=_PERF_STAGES,
        sizes=(500, 1_000, 2_000),
        artifact_sizes=(500,),
        serve_sizes=(),
        graph_sizes=(2_000,),
        repeats=1,
        embed_sizes=(500,),
        embed_repeats=1,
        stage_repeats=1,
    )
    row = report["graph"][-1]
    assert row["n_tables"] > 1
    assert row["n_edges"] > 0
    assert row["build_full_s"] > 0.0
    # Rebuilding one 64-column table's neighborhood vs sweeping all ~31
    # tables: generous smoke bound, the committed full profile holds >= 5x.
    assert row["incremental_speedup"] >= 2.0
    assert row["path_query_ms"] >= 0.0


def test_durability_stage_contract(tmp_path):
    """The WAL/checkpoint/recovery arms all answer and recovery is lossless.

    Absolute timings are *recorded, not gated*: fsync latency is pure
    hardware.  What is structural — and asserted — is that every arm
    produced a positive timing and that recovery restored every column.
    """
    report = run_perf_suite(
        profile="fast",
        stages=("durability",),
        durability_sizes=(1_000,),
        stage_repeats=1,
    )
    assert report["stages"] == ["durability"]
    assert validate_report(report) == []
    assert report["config"]["durability"]["fsync"] == "always"
    row = report["durability"][-1]
    assert row["warmup_runs"] >= 1
    assert row["wal_records"] >= 1
    assert row["wal_append_ms"] > 0.0
    assert row["wal_append_nofsync_ms"] > 0.0
    assert row["inmem_update_ms"] > 0.0
    assert row["wal_overhead_x"] > 0.0
    assert row["checkpoint_s"] > 0.0
    assert row["recovery_s"] > 0.0
    assert row["recovered_columns"] == row["n_columns"]
    history = tmp_path / "BENCH_history.jsonl"
    append_history(report, history)
    entry = json.loads(history.read_text(encoding="utf-8").splitlines()[0])
    assert isinstance(entry["durability_wal_overhead_x"], (int, float))
    assert isinstance(entry["durability_recovery_s"], (int, float))


def test_batched_embedding_amortizes(tmp_path):
    """Batched encode beats the sequential loop and the caches pull weight."""
    report = run_perf_suite(
        profile="fast",
        stages=_PERF_STAGES,
        sizes=(500, 1_000, 2_000),
        embed_sizes=(1_000,),
        serve_sizes=(),
        graph_sizes=(),
        repeats=1,
        embed_repeats=1,
    )
    row = report["embed"][-1]
    assert row["speedup"] > 1.0
    assert row["cache_hit_rate"] > 0.5
    assert row["batched_cols_per_s"] > row["sequential_cols_per_s"]


@pytest.fixture(scope="module")
def quality_only_report():
    """One quality-stage-only run shared by the stage-subset tests."""
    return run_perf_suite(profile="fast", stages=("quality",))


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        run_perf_suite(profile="fast", stages=("nope",))


def test_stage_subset_skips_other_stages(quality_only_report):
    """A subset run executes and records only the requested stages."""
    report = quality_only_report
    assert report["stages"] == ["quality"]
    for stage in _PERF_STAGES:
        assert report[stage] == []
    assert validate_report(report) == []


def test_quality_stage_reports_the_matrix(quality_only_report):
    """Every matrix cell carries the full metric set, exact backend."""
    report = quality_only_report
    assert report["config"]["quality"]["backend"] == "exact"
    assert report["config"]["quality"]["profile"] == "small"
    rows = report["quality"]
    assert rows
    for row in rows:
        assert isinstance(row["dataset_key"], str)
        assert isinstance(row["system"], str)
        assert isinstance(row["arm"], str)
        for k in (2, 3, 5, 10):
            assert 0.0 <= row[f"p_at_{k}"] <= 1.0
            assert 0.0 <= row[f"r_at_{k}"] <= 1.0
        assert 0.0 <= row["map"] <= 1.0
        assert 0.0 <= row["mrr"] <= 1.0


def test_quality_rows_validated(quality_only_report):
    """Tampered quality rows fail validation with an addressable label."""
    import copy

    broken = copy.deepcopy(quality_only_report)
    broken["quality"][0]["r_at_10"] = None
    problems = validate_report(broken)
    assert any("quality" in problem and "r_at_10" in problem for problem in problems)


def test_quality_headlines_ride_the_history(quality_only_report, tmp_path):
    """A run with quality results lands real numbers in the trajectory."""
    history = tmp_path / "BENCH_history.jsonl"
    append_history(quality_only_report, history)
    entry = json.loads(history.read_text(encoding="utf-8").splitlines()[0])
    assert isinstance(entry["quality_warpgate_recall_at_10"], (int, float))
    assert isinstance(entry["quality_hybrid_recall_at_10"], (int, float))
    assert isinstance(entry["quality_aurum_recall_at_10"], (int, float))
    assert isinstance(entry["quality_d3l_recall_at_10"], (int, float))
    assert isinstance(entry["quality_hybrid_map"], (int, float))
