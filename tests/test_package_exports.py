"""Public API surface tests: what `import repro` promises."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevelExports:
    @pytest.mark.parametrize(
        "name",
        [
            "WarpGate",
            "WarpGateConfig",
            "Aurum",
            "D3L",
            "DiscoveryResult",
            "JoinCandidate",
            "LookupService",
            "evaluate_system",
            "generate_testbed",
            "generate_spider_corpus",
            "generate_sigma_sample_database",
        ],
    )
    def test_names_exported(self, name):
        assert hasattr(repro, name)
        assert name in repro.__all__

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestSubpackageExports:
    def test_embedding_surface(self):
        from repro import embedding

        for name in embedding.__all__:
            assert getattr(embedding, name) is not None

    def test_index_surface(self):
        from repro import index

        for name in index.__all__:
            assert getattr(index, name) is not None
        # One layout: the arena, three backends over it, and their helpers.
        assert set(index.__all__) == {
            "ColumnarIndex",
            "ExactCosineIndex",
            "MinHashIndex",
            "MinHashSignature",
            "PivotFilterIndex",
            "SimHashFamily",
            "SimHashLSHIndex",
            "VectorArena",
            "hamming_distance",
            "load_npz_arrays",
            "pack_band_keys",
            "signature_cosine",
        }

    def test_config_has_exactly_the_remaining_fields(self):
        from dataclasses import fields

        assert len(fields(repro.WarpGateConfig)) == 28

    def test_service_surface(self):
        from repro import service

        for name in service.__all__:
            assert getattr(service, name) is not None
        assert {"DiscoveryService", "make_server", "serve"} <= set(service.__all__)

    def test_storage_surface(self):
        from repro import storage

        for name in storage.__all__:
            assert getattr(storage, name) is not None

    def test_warehouse_surface(self):
        from repro import warehouse

        for name in warehouse.__all__:
            assert getattr(warehouse, name) is not None

    def test_datasets_surface(self):
        from repro import datasets

        for name in datasets.__all__:
            assert getattr(datasets, name) is not None

    def test_eval_surface(self):
        from repro import eval as eval_module

        for name in eval_module.__all__:
            assert getattr(eval_module, name) is not None
        # Metrics, the runner and the quality matrix; no perf suite.
        assert set(eval_module.__all__) == {
            "PRPoint",
            "QueryRun",
            "SystemEvaluation",
            "TimingSummary",
            "evaluate_system",
            "mean_average_precision",
            "pr_curve",
            "precision_at_k",
            "recall_at_k",
            "reciprocal_rank",
            "render_pr_figure",
            "render_table",
            "run_quality_suite",
            "summarize_timings",
        }

    def test_baselines_surface(self):
        from repro import baselines

        for name in baselines.__all__:
            assert getattr(baselines, name) is not None

    def test_core_surface(self):
        from repro import core

        for name in core.__all__:
            assert getattr(core, name) is not None


def test_serving_closure_is_one_process():
    """Threads in one process is the only execution model: importing the
    server must not drag in ``multiprocessing`` (numpy, scipy and networkx
    do not either)."""
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.service.server; "
            "sys.exit('multiprocessing' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        timeout=120,
    )
    assert completed.returncode == 0


class TestDocstrings:
    """Every public module and class documents itself."""

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.core",
            "repro.core.warpgate",
            "repro.core.lookup",
            "repro.baselines.aurum",
            "repro.baselines.d3l",
            "repro.embedding.webtable",
            "repro.embedding.bertlike",
            "repro.embedding.finetune",
            "repro.embedding.contextual",
            "repro.index.lsh",
            "repro.index.pivot",
            "repro.warehouse.connector",
            "repro.datasets.nextiajd",
            "repro.datasets.quality",
            "repro.eval.metrics",
        ],
    )
    def test_module_docstrings(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    @pytest.mark.parametrize(
        "cls",
        [
            repro.WarpGate,
            repro.WarpGateConfig,
            repro.Aurum,
            repro.D3L,
            repro.LookupService,
        ],
    )
    def test_class_docstrings(self, cls):
        assert cls.__doc__ and len(cls.__doc__.strip()) > 10

    def test_public_methods_documented(self):
        for cls in (repro.WarpGate, repro.Aurum, repro.D3L):
            for name in ("index_corpus", "search"):
                method = getattr(cls, name)
                assert method.__doc__, f"{cls.__name__}.{name} missing docstring"
