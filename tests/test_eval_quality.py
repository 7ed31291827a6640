"""Tests for repro.eval.quality: the join-quality scenario suite.

One real ``small``-profile run is shared module-wide (the matrix is
deterministic — generated corpora, seeded encoders), so the contract
checks and the recall regression pins all read the same rows.

The regression class is the tier-1 guard the quality work hangs off: a
scoring change that costs recall on the containment workload fails here,
not in a nightly dashboard.
"""

from __future__ import annotations

import pytest

from repro.eval.quality import (
    QUALITY_KS,
    QUALITY_PROFILES,
    WARPGATE_ARMS,
    run_quality_suite,
)


@pytest.fixture(scope="module")
def small_suite():
    return run_quality_suite(profile="small")


@pytest.fixture(scope="module")
def small_rows(small_suite):
    return {(row["system"], row["arm"]): row for row in small_suite["rows"]}


class TestSuiteContract:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_quality_suite(profile="enormous")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            run_quality_suite(profile="small", datasets=("nope",))

    def test_profiles_cover_the_headline_systems(self):
        # Every profile must produce all four numbers the recall pins
        # below read.
        for spec in QUALITY_PROFILES.values():
            assert {"webtable", "hybrid"} <= set(spec["arms"])
        assert set(QUALITY_PROFILES["full"]["arms"]) == set(WARPGATE_ARMS)

    def test_one_row_per_cell(self, small_suite, small_rows):
        arms = QUALITY_PROFILES["small"]["arms"]
        expected = {("warpgate", arm) for arm in arms}
        expected |= {("aurum", "default"), ("d3l", "default")}
        assert set(small_rows) == expected
        assert len(small_suite["rows"]) == len(expected)

    def test_rows_carry_the_full_metric_set(self, small_suite):
        for row in small_suite["rows"]:
            assert row["dataset_key"] == "nextiajd"
            assert row["n_queries"] > 0
            for k in QUALITY_KS:
                assert 0.0 <= row[f"p_at_{k}"] <= 1.0
                assert 0.0 <= row[f"r_at_{k}"] <= 1.0
            assert 0.0 <= row["map"] <= 1.0
            assert 0.0 <= row["mrr"] <= 1.0
            assert row["index_s"] >= 0.0
            assert row["eval_s"] >= 0.0

    def test_recall_monotone_in_k(self, small_suite):
        for row in small_suite["rows"]:
            recalls = [row[f"r_at_{k}"] for k in QUALITY_KS]
            assert recalls == sorted(recalls), (row["system"], row["arm"])


class TestRecallRegression:
    """Floors under the committed small-profile matrix (measured with
    margin: webtable R@10 = 0.875, hybrid = 1.0, aurum = 0.458,
    d3l = 0.917 at the time of pinning)."""

    def test_warpgate_cosine_recall_floor(self, small_rows):
        assert small_rows[("warpgate", "webtable")]["r_at_10"] >= 0.8

    def test_hybrid_recall_floor(self, small_rows):
        assert small_rows[("warpgate", "hybrid")]["r_at_10"] >= 0.95

    def test_hybrid_beats_cosine_recall(self, small_rows):
        hybrid = small_rows[("warpgate", "hybrid")]
        cosine = small_rows[("warpgate", "webtable")]
        assert hybrid["r_at_10"] > cosine["r_at_10"]

    def test_hybrid_does_not_pay_in_precision(self, small_rows):
        hybrid = small_rows[("warpgate", "hybrid")]
        cosine = small_rows[("warpgate", "webtable")]
        assert hybrid["p_at_10"] >= cosine["p_at_10"]

    def test_warpgate_beats_aurum(self, small_rows):
        # Embeddings beat thresholded MinHash on the containment workload.
        warpgate = small_rows[("warpgate", "webtable")]
        assert warpgate["r_at_10"] >= small_rows[("aurum", "default")]["r_at_10"]

    def test_hybrid_map_floor(self, small_rows):
        assert small_rows[("warpgate", "hybrid")]["map"] >= 0.9

