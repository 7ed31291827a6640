"""Evaluation harness: metrics, runners, timing decomposition, reports.

Reproduces the paper's measurement methodology (§4.2): top-k precision and
recall averaged over all queries at each k, plus index lookup time and
end-to-end query response time in seconds per query.
"""

from repro.eval.quality import run_quality_suite
from repro.eval.metrics import (
    PRPoint,
    mean_average_precision,
    precision_at_k,
    pr_curve,
    recall_at_k,
    reciprocal_rank,
)
from repro.eval.report import render_pr_figure, render_table
from repro.eval.runner import QueryRun, SystemEvaluation, evaluate_system
from repro.eval.timing import TimingSummary, summarize_timings

__all__ = [
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
]
