"""Documentation consistency: the docs describe the repository that exists."""

from __future__ import annotations

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
DESIGN = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


class TestDocsExist:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_present_and_substantial(self, name):
        path = ROOT / name
        assert path.exists()
        assert len(path.read_text(encoding="utf-8")) > 2_000


class TestReadme:
    def test_mentions_every_example(self):
        for example in sorted((ROOT / "examples").glob("*.py")):
            assert example.name in README, f"README does not mention {example.name}"

    def test_mentions_every_benchmark_family(self):
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            stem = bench.name
            assert (
                stem in README or "bench_ablation_" in stem or stem in DESIGN
            ), f"neither README nor DESIGN mentions {stem}"

    def test_quickstart_snippet_is_real_api(self):
        assert "from repro import WarpGate, generate_testbed" in README
        # The snippet's names must exist.
        import repro

        assert hasattr(repro, "WarpGate")
        assert hasattr(repro, "generate_testbed")


class TestDesign:
    def test_every_bench_file_in_experiment_index(self):
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in DESIGN, f"DESIGN.md experiment index misses {bench.name}"

    def test_every_source_package_inventoried(self):
        for package in sorted((ROOT / "src" / "repro").iterdir()):
            if package.is_dir() and (package / "__init__.py").exists():
                assert (
                    f"{package.name}/" in DESIGN
                ), f"DESIGN.md inventory misses package {package.name}"

    def test_paper_identity_check_recorded(self):
        assert "arXiv:2212.14155" in DESIGN
        assert "CIDR 2023" in DESIGN


class TestExperiments:
    @pytest.mark.parametrize(
        "anchor",
        [
            "Table 1",
            "Figure 4(a)",
            "Figure 4(b)",
            "Figure 4(c)",
            "Table 2",
            "sample efficiency",
            "BERT comparison",
            "ad-hoc discovery in Sigma",
            "fleet-scale sampling economics",
            "known deviations",
        ],
    )
    def test_every_experiment_recorded(self, anchor):
        assert anchor in EXPERIMENTS

    def test_every_bench_referenced(self):
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            if bench.name == "bench_index_micro.py":
                continue  # micro-benches are not a paper experiment
            assert bench.name in EXPERIMENTS, f"EXPERIMENTS.md misses {bench.name}"


class TestPerfDocs:
    """One benchmark: ``bench/`` + ``BENCHMARK.json`` is the only yardstick."""

    @pytest.mark.parametrize("name", ["README.md", "EXPERIMENTS.md"])
    def test_names_the_repo_benchmark(self, name):
        text = (ROOT / name).read_text(encoding="utf-8")
        assert "python3 bench/run.py" in text
        assert "BENCHMARK.json" in text

    @pytest.mark.parametrize("name", ["README.md", "EXPERIMENTS.md"])
    def test_does_not_name_the_removed_suite(self, name):
        text = (ROOT / name).read_text(encoding="utf-8")
        assert "python -m repro bench" not in text
        assert "BENCH_index.json" not in text

    def test_no_bench_cli_subcommand(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_design_has_index_internals_section(self):
        assert "Index internals" in DESIGN
        for anchor in ("VectorArena", "tombstone", "compaction", "search_batch"):
            assert anchor in DESIGN, f"Index internals misses {anchor!r}"


class TestInventoryMatchesModules:
    def test_design_module_listing_is_current(self):
        """Every module named in the DESIGN inventory actually exists."""
        import re

        for match in re.finditer(r"^\s{4}(\w+\.py)\s", DESIGN, flags=re.MULTILINE):
            module_name = match.group(1)
            hits = list((ROOT / "src" / "repro").rglob(module_name))
            assert hits, f"DESIGN.md lists {module_name} but no such module exists"
