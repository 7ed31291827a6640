"""Join-quality matrix — every WarpGate arm vs. Aurum vs. D3L, three corpora.

Regenerates EXPERIMENTS "Join quality": the ``full`` profile of
:mod:`repro.eval.quality` (NextiaJD-XS, Spider, Sigma × the five encoder
arms + hybrid scoring, Aurum and D3L; exact backend, rows_scale 0.25,
≤ 30 queries per dataset), printed as P@10 / R@10 per cell.

Measured shape on this containment-labelled (syntactic) ground truth:
WarpGate and D3L far above Aurum in every column, and D3L ≥ the webtable
arm; hybrid recovers the containment joins cosine alone drops.
"""

from __future__ import annotations

from repro.eval.quality import run_quality_suite
from repro.eval.report import render_table


def test_quality_matrix(benchmark):
    suite = benchmark.pedantic(
        lambda: run_quality_suite(profile="full"), rounds=1, iterations=1
    )
    cells = {
        (row["dataset_key"], row["system"], row["arm"]): row
        for row in suite["rows"]
    }
    datasets = list(dict.fromkeys(key[0] for key in cells))
    systems = list(dict.fromkeys(key[1:] for key in cells))
    rows = [
        [system if arm == "default" else f"{system}[{arm}]"]
        + [
            f"{cells[(dataset, system, arm)]['p_at_10']:.3f} / "
            f"{cells[(dataset, system, arm)]['r_at_10']:.3f}"
            for dataset in datasets
        ]
        for system, arm in systems
    ]
    print()
    print(
        render_table(
            ["system", *datasets],
            rows,
            title="Join quality matrix (full profile, exact backend): P@10 / R@10",
        )
    )

    for dataset in datasets:
        recall = {
            (system, arm): cells[(dataset, system, arm)]["r_at_10"]
            for system, arm in systems
        }
        # Embeddings beat thresholded MinHash on the containment workload.
        assert recall[("warpgate", "webtable")] >= recall[("aurum", "default")]
        # The hybrid blend never costs recall against pure cosine.
        assert recall[("warpgate", "hybrid")] >= recall[("warpgate", "webtable")]
