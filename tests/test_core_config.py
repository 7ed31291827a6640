"""Tests for repro.core.config."""

from __future__ import annotations

import pytest

from repro.core.config import WarpGateConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = WarpGateConfig()
        assert config.model_name == "webtable"
        assert config.threshold == 0.7
        assert config.search_backend == "lsh"
        assert config.sample_size is None
        assert config.default_k == 10

    def test_frozen(self):
        with pytest.raises(AttributeError):
            WarpGateConfig().threshold = 0.5  # type: ignore[misc]


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            WarpGateConfig(search_backend="faiss")

    def test_unknown_aggregation(self):
        with pytest.raises(ValueError):
            WarpGateConfig(aggregation="max")

    def test_unknown_sampling(self):
        with pytest.raises(ValueError):
            WarpGateConfig(sampling_strategy="stratified")

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            WarpGateConfig(sample_size=0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            WarpGateConfig(threshold=1.5)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            WarpGateConfig(default_k=0)


class TestWithers:
    def test_with_sampling(self):
        config = WarpGateConfig().with_sampling(100, "uniform")
        assert config.sample_size == 100
        assert config.sampling_strategy == "uniform"

    def test_with_sampling_keeps_strategy(self):
        config = WarpGateConfig(sampling_strategy="reservoir").with_sampling(10)
        assert config.sampling_strategy == "reservoir"

    def test_with_model(self):
        assert WarpGateConfig().with_model("bertlike").model_name == "bertlike"

    def test_with_backend(self):
        assert WarpGateConfig().with_backend("exact").search_backend == "exact"

    def test_with_threshold(self):
        assert WarpGateConfig().with_threshold(0.5).threshold == 0.5

    def test_with_serving(self):
        config = WarpGateConfig().with_serving(
            coalesce=False, coalesce_max_batch=8, query_cache_size=0
        )
        assert config.coalesce is False
        assert config.coalesce_max_batch == 8
        assert config.query_cache_size == 0
        # Unnamed knobs keep their values.
        assert config.coalesce_max_wait_us == WarpGateConfig().coalesce_max_wait_us

    def test_serving_knobs_validated(self):
        with pytest.raises(ValueError):
            WarpGateConfig(coalesce_max_batch=0)
        with pytest.raises(ValueError):
            WarpGateConfig(coalesce_max_wait_us=-1)
        with pytest.raises(ValueError):
            WarpGateConfig(query_cache_size=-1)

    def test_withers_do_not_mutate_original(self):
        config = WarpGateConfig()
        config.with_threshold(0.1)
        assert config.threshold == 0.7
