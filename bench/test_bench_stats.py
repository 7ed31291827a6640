"""The benchmark's own arithmetic: slices, streams, open-loop timing, checks.

Pure Python and under a second, so tier-1 collects it with everything else.
"""

from __future__ import annotations

import pytest

from bench.stats import (
    eligible_percentile,
    median,
    overlap_at_k,
    percentile,
    regressed,
    relative_gap,
    slice_samples,
    summarize_slices,
)
from bench.workload import (
    FAILURE_CLASSES,
    FULL,
    SMOKE,
    WORKLOADS,
    WriteCycle,
    build_plan,
    check_response,
    check_search,
    expected_match,
    extract_ref,
    run_open_loop,
)

# -- slices and percentiles -----------------------------------------------------


def test_percentile_interpolates_and_rejects_empty():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 95) == pytest.approx(4.8)
    assert median([7]) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_eligibility_needs_ten_samples_beyond():
    assert eligible_percentile(200) == 95  # 10 beyond p95, only 2 beyond p99
    assert eligible_percentile(199) == 90
    assert eligible_percentile(1000) == 99
    assert eligible_percentile(19) is None


def test_samples_land_in_the_slice_they_completed_in():
    samples = [(9.9, 1.0), (10.0, 2.0), (10.99, 3.0), (11.0, 4.0), (12.0, 5.0)]
    assert slice_samples(samples, start=10.0, slice_s=1.0, n_slices=2) == [[2.0, 3.0], [4.0]]


def test_slice_median_ignores_one_stalled_slice():
    steady = [[1.0] * 300 for _ in range(4)]
    stalled = [[1.0] * 50 + [80.0] * 50]
    summary = summarize_slices(steady + stalled, slice_s=1.0)
    assert summary["per_s"] == 300
    assert summary["p50"] == 1.0
    assert summary["tail"] == 1.0
    # ...but the thin slice makes p95 ineligible, and the run says so.
    assert summary["tail_eligible"] == 0.0
    assert summary["min_slice_samples"] == 100
    assert summarize_slices(steady, slice_s=1.0)["tail_eligible"] == 1.0


def test_overlap_at_k():
    assert overlap_at_k(["a", "b", "c"], ["a", "b", "d"], 10) == pytest.approx(2 / 3)
    assert overlap_at_k([], [], 10) == 1.0
    assert overlap_at_k(["a"], [], 10) == 0.0
    assert overlap_at_k(["a", "b"], ["a"], 1) == 1.0


def test_relative_gap_follows_the_metric_direction():
    assert relative_gap(100, 110, "lower") == pytest.approx(0.10)
    assert relative_gap(100, 110, "higher") == pytest.approx(-0.10)
    assert regressed(100, 89, "higher", 0.10)
    assert not regressed(100, 91, "higher", 0.10)
    assert not regressed(1.0, 0.9995, "higher", 0.001)
    with pytest.raises(ValueError):
        relative_gap(1, 2, "bigger")


# -- streams --------------------------------------------------------------------

LAKE_REFS = [f"testbeds.dataset_{t:03d}.col_{c}" for t in range(8) for c in range(8)]
WIDE_REFS = [f"wide.t{i // 16:05d}.c{i % 16:02d}" for i in range(SMOKE.wide_columns)]


def _walk(stream, n):
    return [stream.next() for _ in range(n)]


def test_permutation_streams_are_seeded_and_disjoint_across_clients():
    plan = build_plan(WORKLOADS["lake_cold"], 7, LAKE_REFS, SMOKE)
    again = build_plan(WORKLOADS["lake_cold"], 7, list(reversed(LAKE_REFS)), SMOKE)
    other = build_plan(WORKLOADS["lake_cold"], 8, LAKE_REFS, SMOKE)
    per_client = len(LAKE_REFS) * (SMOKE.extract_copies - 1) // 2
    first, second = (_walk(stream, per_client) for stream in plan.streams)
    assert first == _walk(again.streams[0], per_client)
    assert first != _walk(other.streams[0], per_client)
    assert len(set(first)) == per_client
    assert not set(first) & set(second)
    assert not (set(first) | set(second)) & set(plan.probe_set)
    assert plan.probe_set == other.probe_set  # the probe set belongs to the corpus
    assert not any(stream.wrapped for stream in plan.streams)
    plan.streams[0].next()
    assert plan.streams[0].wrapped


def test_mixed_rw_reader_walks_the_lake_cold_client_zero_stream():
    cold = build_plan(WORKLOADS["lake_cold"], 3, LAKE_REFS, SMOKE)
    mixed = build_plan(WORKLOADS["mixed_rw"], 3, LAKE_REFS, SMOKE)
    assert len(mixed.streams) == 1
    assert _walk(mixed.streams[0], 50) == _walk(cold.streams[0], 50)


def test_zipf_streams_are_seeded_skewed_and_differ_per_client():
    plan = build_plan(WORKLOADS["hot_repeat"], 5, WIDE_REFS, SMOKE)
    again = build_plan(WORKLOADS["hot_repeat"], 5, WIDE_REFS, SMOKE)
    first, second = (_walk(stream, 4000) for stream in plan.streams)
    assert first == _walk(again.streams[0], 4000)
    assert first != second
    assert len(set(first)) <= SMOKE.hot_pool
    counts = sorted((first.count(ref) for ref in set(first)), reverse=True)
    assert counts[0] > 10 * counts[len(counts) // 2]
    assert not set(plan.probe_set) & (set(first) | set(second))
    assert set(first) | set(second) <= set(plan.preload) and len(plan.preload) == SMOKE.hot_pool


def test_wide_probe_queries_are_indexed_columns_the_cache_cannot_hold():
    plan = build_plan(WORKLOADS["wide_probe"], 1, [f"wide.t{i // 16:05d}.c{i % 16:02d}" for i in range(FULL.wide_columns)], FULL)
    assert sum(len(stream._refs) for stream in plan.streams) > 4096 * 4


def test_expected_match_names_the_source_or_the_partner():
    lake, wide = WORKLOADS["lake_cold"], WORKLOADS["wide_probe"]
    query = extract_ref("testbeds.dataset_004.vendor", 17)
    assert query == "adhoc.dataset_004__x17.vendor"
    assert expected_match(lake, query, SMOKE, "testbeds") == "testbeds.dataset_004.vendor"
    half = SMOKE.wide_columns // 2
    assert expected_match(wide, "wide.t00000.c03", SMOKE, "wide") == f"wide.t{half // 16:05d}.c03"
    assert expected_match(wide, f"wide.t{half // 16:05d}.c03", SMOKE, "wide") == "wide.t00000.c03"


# -- writes ---------------------------------------------------------------------


def test_write_cycle_prefills_then_cycles_and_drops_the_oldest():
    cycle = WriteCycle(["db.t.c"], [(["a", "b"], "[]")], prefill=2)
    ops = [cycle.next_op() for _ in range(10)]
    assert [op.kind for op in ops] == [
        "add", "add", "refresh", "add", "refresh", "drop", "refresh", "add", "refresh", "drop",
    ]
    assert [op.table for op in ops if op.kind == "drop"] == ["snap_000001", "snap_000002"]
    assert b'"name":"snap_000003"' in ops[3].body
    assert cycle.columns_of["snap_000003"] == ["a", "b"]


def test_open_loop_times_from_the_due_time_not_the_send_time():
    now = [100.0]
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        now[0] += seconds

    def stalls_once(index):
        now[0] += 0.35 if index == 1 else 0.01  # one 350 ms stall at 10 op/s
        return index

    timings = run_open_loop(
        5, 10.0, stalls_once, start=100.0, clock=lambda: now[0], sleep=sleep
    )
    assert [t.due for t in timings] == pytest.approx([100.0, 100.1, 100.2, 100.3, 100.4])
    # The stalled operation and the two queued behind it all pay for the stall.
    assert [round(t.latency, 2) for t in timings] == [0.01, 0.35, 0.26, 0.17, 0.08]
    assert [round(t.late, 2) for t in timings] == [0.0, 0.0, 0.25, 0.16, 0.07]
    assert [t.outcome for t in timings] == [0, 1, 2, 3, 4]
    assert len(slept) == 1  # only the second send had to wait for its slot


# -- response checks ------------------------------------------------------------


def _candidate(score, table="other", database="db"):
    return {
        "database": database,
        "table": table,
        "column": "c",
        "ref": f"{database}.{table}.c",
        "score": score,
    }


def _check(candidates, **overrides):
    arguments = {"k": 3, "threshold": 0.7, "query_table": ("db", "mine")}
    arguments.update(overrides)
    return check_search({"query": "db.mine.c", "candidates": candidates}, **arguments)


def test_checker_accepts_a_good_answer():
    assert _check([_candidate(0.9), _candidate(0.9), _candidate(0.7)]) is None
    assert _check([]) is None


def test_checker_rejects_each_failure_class():
    seen = {
        check_response(503, b"{}", k=3, threshold=0.7, query_table=("db", "mine"))[0],
        check_response(200, b"{not json", k=3, threshold=0.7, query_table=("db", "mine"))[0],
        check_search([], k=3, threshold=0.7, query_table=("db", "mine")),
        _check([{"ref": "db.t.c", "score": "high", "database": "db", "table": "t"}]),
        _check([_candidate(0.9)] * 4),
        _check([_candidate(0.8), _candidate(0.9)]),
        _check([_candidate(0.9), _candidate(0.69)]),
        _check([_candidate(0.9, table="mine")]),
        _check(
            [_candidate(0.9, table="gone", database="snap")],
            dropped={("snap", "gone"): 5.0},
            sent_at=5.1,
        ),
    }
    assert seen == set(FAILURE_CLASSES)


def test_a_drop_only_binds_requests_sent_after_its_acknowledgement():
    in_flight = _check(
        [_candidate(0.9, table="gone", database="snap")],
        dropped={("snap", "gone"): 5.0},
        sent_at=4.9,
    )
    assert in_flight is None


def test_check_response_returns_the_decoded_payload():
    failure, payload = check_response(
        200, b'{"candidates": []}', k=3, threshold=0.7, query_table=("db", "mine")
    )
    assert failure is None and payload == {"candidates": []}
