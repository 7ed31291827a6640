"""Join-quality scenario suite: the paper's Figure-4 evidence, measured.

The repo benchmark (``bench/``) tracks *speed*; this module tracks
*quality* — the paper's headline claim.  It materializes ground-truth
joinable pairs for every built-in corpus (NextiaJD containment labelling
via :func:`repro.datasets.quality.compute_ground_truth` where the
generator declares no truth), runs WarpGate across every encoder-registry
arm plus the hybrid semantic+syntactic scoring mode, runs both baselines
(Aurum, D3L), and reports precision/recall@k for k ∈ {2, 3, 5, 10}, MAP,
and MRR per (dataset, system, arm) cell.

Every WarpGate arm runs on the ``exact`` backend so the matrix isolates
*scoring* quality from LSH candidate-generation recall (the banding
S-curve is tuned for the 0.7 cosine operating point; hybrid's relaxed
candidate floor would otherwise confound the comparison).

Datasets
--------
* ``nextiajd`` — the XS testbed, post-hoc containment ground truth.  The
  nested-subset generator deliberately creates high-containment /
  low-Jaccard pairs: the regime where thresholded MinHash (Aurum) misses
  joins that embeddings keep, and where the hybrid blend recovers
  moderate-cosine pairs the pure-cosine threshold discards.
* ``spider`` — declared PK/FK ground truth, partial-coverage foreign
  keys (containment-total / low-Jaccard).
* ``sigma`` — ships *without* ground truth (the paper evaluates it
  qualitatively); the harness labels it post hoc with the same
  containment rule so all three corpora are measured identically.

``benchmarks/bench_quality_matrix.py`` regenerates the committed ``full``
matrix; ``tests/test_eval_quality.py`` pins the ``small`` profile's
orderings in tier-1.
"""

from __future__ import annotations

import time

from repro.core.config import WarpGateConfig

__all__ = [
    "QUALITY_KS",
    "QUALITY_PROFILES",
    "WARPGATE_ARMS",
    "run_quality_suite",
]

#: Figure-4 cutoffs.
QUALITY_KS = (2, 3, 5, 10)

#: WarpGate arms: the five encoder-registry models scored on pure cosine,
#: plus the hybrid semantic+syntactic blend over the default encoder.
WARPGATE_ARMS = (
    "webtable",
    "hashing",
    "bertlike",
    "cooccur",
    "contextual",
    "hybrid",
)

#: Named harness profiles.  ``full`` is the committed baseline matrix
#: (every dataset × every arm); ``small`` keeps the tier-1 recall pins
#: fast while still covering the headline systems (WarpGate cosine +
#: hybrid, Aurum, D3L) on the NextiaJD containment workload.
QUALITY_PROFILES: dict[str, dict] = {
    "full": {
        "datasets": ("nextiajd", "spider", "sigma"),
        "arms": WARPGATE_ARMS,
        "rows_scale": 0.25,
        "max_queries": 30,
    },
    "small": {
        "datasets": ("nextiajd",),
        "arms": ("webtable", "hybrid"),
        "rows_scale": 0.25,
        "max_queries": 12,
    },
}

#: Baseline systems run once per dataset (they have no encoder arms).
_BASELINES = ("aurum", "d3l")


def _build_dataset(key: str, *, rows_scale: float):
    """One named evaluation corpus, ground truth guaranteed."""
    if key == "nextiajd":
        from repro.datasets.nextiajd import generate_testbed

        return generate_testbed("XS", rows_scale=rows_scale)
    if key == "spider":
        from repro.datasets.spider import generate_spider_corpus

        return generate_spider_corpus(n_databases=8, rows_scale=rows_scale)
    if key == "sigma":
        from repro.datasets.quality import compute_ground_truth
        from repro.datasets.sigma import generate_sigma_sample_database

        corpus = generate_sigma_sample_database(
            rows_scale=rows_scale, with_snapshots=False
        )
        # The generator declares no truth (the paper's Sigma evaluation is
        # qualitative); label it post hoc with the containment rule.
        truth, queries = compute_ground_truth(corpus.to_store())
        corpus.ground_truth = truth
        corpus.queries = queries
        return corpus
    raise ValueError(f"unknown quality dataset {key!r}")


def _make_system(system: str, arm: str):
    """Fresh system instance for one matrix cell."""
    if system == "warpgate":
        config = WarpGateConfig(search_backend="exact")
        if arm == "hybrid":
            config = config.with_scoring("hybrid")
        else:
            config = config.with_model(arm)
        from repro.core.warpgate import WarpGate

        return WarpGate(config)
    if system == "aurum":
        from repro.baselines.aurum import Aurum

        return Aurum()
    if system == "d3l":
        from repro.baselines.d3l import D3L

        return D3L()
    raise ValueError(f"unknown quality system {system!r}")


def _cells(arms: tuple[str, ...]):
    """(system, arm) pairs of one dataset's matrix row block."""
    for arm in arms:
        yield "warpgate", arm
    for baseline in _BASELINES:
        yield baseline, "default"


def _evaluate_cell(system_name: str, arm: str, corpus, *, ks, max_queries) -> dict:
    from repro.eval.metrics import mean_average_precision, reciprocal_rank
    from repro.eval.runner import evaluate_system

    system = _make_system(system_name, arm)
    start = time.perf_counter()
    evaluation = evaluate_system(system, corpus, ks=ks, max_queries=max_queries)
    seconds = time.perf_counter() - start
    answered = [
        (run.ranked, run.answers) for run in evaluation.runs if run.answers
    ]
    reciprocal = [
        reciprocal_rank(ranked, answers) for ranked, answers in answered
    ]
    row: dict[str, object] = {
        "dataset": corpus.name,
        "dataset_key": None,  # filled by the caller (corpus names carry scale)
        "system": system_name,
        "arm": arm,
        "n_queries": len(answered),
        "map": round(mean_average_precision(answered), 4),
        "mrr": round(
            sum(reciprocal) / len(reciprocal) if reciprocal else 0.0, 4
        ),
        "index_s": round(evaluation.index_report.wall_seconds, 3),
        "eval_s": round(seconds, 3),
    }
    for point in evaluation.curve:
        row[f"p_at_{point.k}"] = round(point.precision, 4)
        row[f"r_at_{point.k}"] = round(point.recall, 4)
    return row


def run_quality_suite(
    *,
    profile: str = "full",
    ks: tuple[int, ...] = QUALITY_KS,
    datasets: tuple[str, ...] | None = None,
    arms: tuple[str, ...] | None = None,
    max_queries: int | None = None,
    progress=None,
) -> dict:
    """Run the (dataset × system × arm) quality matrix.

    Returns ``{"profile", "ks", "rows"}``: one row per matrix cell
    carrying ``p_at_k`` / ``r_at_k`` for every k, MAP, MRR, the
    answered-query count, and index/eval wall times.  Every system in a
    cell gets a fresh instance and a fresh metered connector, so cells
    are independent.
    """
    if profile not in QUALITY_PROFILES:
        raise ValueError(
            f"unknown quality profile {profile!r}; "
            f"choose from {sorted(QUALITY_PROFILES)}"
        )
    spec = QUALITY_PROFILES[profile]
    datasets = tuple(datasets) if datasets is not None else spec["datasets"]
    arms = tuple(arms) if arms is not None else spec["arms"]
    max_queries = max_queries if max_queries is not None else spec["max_queries"]
    rows: list[dict] = []
    for dataset_key in datasets:
        if progress is not None:
            progress(f"building quality dataset {dataset_key} ...")
        corpus = _build_dataset(dataset_key, rows_scale=spec["rows_scale"])
        for system_name, arm in _cells(arms):
            if progress is not None:
                progress(
                    f"quality: {dataset_key} × {system_name}"
                    + (f"[{arm}]" if arm != "default" else "")
                    + " ..."
                )
            row = _evaluate_cell(
                system_name, arm, corpus, ks=ks, max_queries=max_queries
            )
            row["dataset_key"] = dataset_key
            rows.append(row)
    return {"profile": profile, "ks": list(ks), "rows": rows}
