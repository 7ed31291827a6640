"""Bench-trajectory regression gate: ``python -m repro bench-compare``.

``BENCH_history.jsonl`` records one headline entry per committed bench
run.  This module diffs the two most recent entries *of the same
profile* (a fast CI smoke entry must never be compared against a
committed full-profile baseline — the corpus sizes differ by an order
of magnitude) and flags any metric that moved beyond a noise band in
its bad direction.

The band is deliberately wide (35% by default): these benches run on
shared CI hardware, and the pairwise gate exists to catch silent
collapses — a 12.4x → 4x cliff fails, single-step noise does not.

Pairwise comparison has a blind spot: a metric can leak a little every
PR and never trip the band.  ``artifact_load_speedup`` did exactly that
— 12.4x → 9.0x → 8.4x → 7.8x, each adjacent step comfortably inside
35%, a 37% cumulative loss with no CI failure.  The *windowed drift*
gate closes it: for each watched metric the newest entry is also
compared against the **best** value in the previous
:data:`DRIFT_WINDOW` same-profile entries, with a tighter
:data:`DRIFT_TOLERANCE` band.  Run against that history, the window
catches the slide at the 7.8 entry (7.8 / max{12.4, 9.0, 8.4} = 0.63 <
0.75) that the pairwise gate waved through.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError

__all__ = [
    "DEFAULT_TOLERANCE",
    "DRIFT_METRICS",
    "DRIFT_TOLERANCE",
    "DRIFT_WINDOW",
    "HIGHER_IS_BETTER",
    "LOWER_IS_BETTER",
    "compare_entries",
    "compare_history",
    "detect_drift",
    "load_history",
    "render_comparison",
]

DEFAULT_TOLERANCE = 0.35

#: Metrics watched for slow multi-PR drift (windowed gate).  All must be
#: higher-is-better; extend as other metrics show leak-not-cliff shapes.
DRIFT_METRICS = ("artifact_load_speedup",)
#: Prior same-profile entries the windowed gate looks back over.
DRIFT_WINDOW = 3
#: Fractional drop from the window's best value that counts as drift.
#: Tighter than the pairwise band: the window best is a stabler anchor
#: than one (possibly noisy) adjacent entry.
DRIFT_TOLERANCE = 0.25

#: Headline metrics where a *drop* is a regression.
HIGHER_IS_BETTER = (
    "batch_speedup",
    "embed_speedup",
    "artifact_load_speedup",
    "serve_qps_engine",
    "serve_coalesced_speedup",
    "serve_cache_hit_rate",
    "overload_goodput_4x",
    "graph_incremental_speedup",
    "quality_warpgate_recall_at_10",
    "quality_hybrid_recall_at_10",
    "quality_aurum_recall_at_10",
    "quality_d3l_recall_at_10",
    "quality_hybrid_map",
)

#: Headline metrics where a *rise* is a regression.
LOWER_IS_BETTER = (
    "batch_per_query_ms",
    "graph_path_query_ms",
    "durability_recovery_s",
    "overload_shed_p99_ms",
    "overload_deadline_miss_rate",
)


def load_history(path: str | Path) -> list[dict]:
    """Parse every entry of a ``BENCH_history.jsonl`` file, oldest first."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no bench history at {path}")
    entries = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as error:
            raise ReproError(f"{path}:{number}: invalid JSON: {error}") from error
        if not isinstance(entry, dict):
            raise ReproError(f"{path}:{number}: entry must be a JSON object")
        entries.append(entry)
    return entries


def _metric_pairs(previous: dict, current: dict):
    """Yield ``(metric, prev, curr, direction)`` for comparable metrics.

    A metric missing or null on either side is skipped — older entries
    predate newer stages, and a gate must not punish history growth.
    """
    for direction, metrics in (("higher", HIGHER_IS_BETTER), ("lower", LOWER_IS_BETTER)):
        for metric in metrics:
            before, after = previous.get(metric), current.get(metric)
            if isinstance(before, (int, float)) and isinstance(after, (int, float)):
                yield metric, float(before), float(after), direction


def compare_entries(
    previous: dict, current: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> list[dict]:
    """Per-metric comparison rows between two history entries.

    Each row carries ``{metric, previous, current, ratio, direction,
    regressed}``; ``ratio`` is current/previous.  A higher-is-better
    metric regresses when it fell below ``previous * (1 - tolerance)``;
    a lower-is-better one when it rose above ``previous * (1 + tolerance)``.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ReproError(f"tolerance must be in [0, 1), got {tolerance}")
    rows = []
    for metric, before, after, direction in _metric_pairs(previous, current):
        ratio = after / before if before else float("inf")
        if direction == "higher":
            regressed = after < before * (1.0 - tolerance)
        else:
            regressed = after > before * (1.0 + tolerance)
        rows.append(
            {
                "metric": metric,
                "previous": before,
                "current": after,
                "ratio": ratio,
                "direction": direction,
                "regressed": regressed,
            }
        )
    return rows


def detect_drift(
    window_entries: list[dict],
    current: dict,
    *,
    metrics: tuple[str, ...] = DRIFT_METRICS,
    tolerance: float = DRIFT_TOLERANCE,
    min_entries: int = DRIFT_WINDOW,
) -> list[dict]:
    """Windowed drift rows: ``current`` vs the best of ``window_entries``.

    For each watched (higher-is-better) metric, anchors on the *best*
    value across the window — so a sequence of small adjacent drops,
    each inside the pairwise band, still trips once the cumulative loss
    from the window's high-water mark exceeds ``tolerance``.  Entries
    missing the metric are skipped (history growth must not punish).

    The gate arms only once ``min_entries`` window values exist for a
    metric: with a shorter trajectory the anchor is one (possibly
    noisy) neighbor, which is exactly the comparison the wider pairwise
    band already adjudicates — a single 12.4x → 9.0x step is noise
    there, and the tighter drift band must not overrule that verdict.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ReproError(f"drift tolerance must be in [0, 1), got {tolerance}")
    rows = []
    for metric in metrics:
        if metric not in HIGHER_IS_BETTER:
            raise ReproError(
                f"drift metric {metric!r} must be higher-is-better"
            )
        window = [
            float(entry[metric])
            for entry in window_entries
            if isinstance(entry.get(metric), (int, float))
            and not isinstance(entry.get(metric), bool)
        ]
        after = current.get(metric)
        if len(window) < max(1, min_entries):
            continue
        if not isinstance(after, (int, float)) or isinstance(after, bool):
            continue
        best = max(window)
        rows.append(
            {
                "metric": metric,
                "window_best": best,
                "window_size": len(window),
                "current": float(after),
                "ratio": float(after) / best if best else float("inf"),
                "drifted": float(after) < best * (1.0 - tolerance),
            }
        )
    return rows


def compare_history(
    path: str | Path,
    *,
    profile: str | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Compare the two newest same-profile entries of a history file.

    ``profile`` defaults to the newest entry's, so the gate always
    checks the trajectory the latest run belongs to.  On top of the
    pairwise comparison, the newest entry is checked for windowed drift
    against the previous :data:`DRIFT_WINDOW` same-profile entries
    (see :func:`detect_drift`); drifted metrics join ``regressions``
    tagged ``"<metric> (drift)"``.
    """
    entries = load_history(path)
    if not entries:
        raise ReproError(f"bench history {path} is empty")
    if profile is None:
        profile = entries[-1].get("profile")
    matching = [entry for entry in entries if entry.get("profile") == profile]
    if len(matching) < 2:
        raise ReproError(
            f"need at least two {profile!r}-profile entries in {path} to "
            f"compare, found {len(matching)}"
        )
    previous, current = matching[-2], matching[-1]
    rows = compare_entries(previous, current, tolerance=tolerance)
    drift = detect_drift(matching[-(DRIFT_WINDOW + 1) : -1], current)
    regressions = [row["metric"] for row in rows if row["regressed"]]
    regressions += [
        f"{row['metric']} (drift)" for row in drift if row["drifted"]
    ]
    return {
        "profile": profile,
        "tolerance": tolerance,
        "previous": previous,
        "current": current,
        "rows": rows,
        "drift": drift,
        "drift_window": DRIFT_WINDOW,
        "drift_tolerance": DRIFT_TOLERANCE,
        "regressions": regressions,
    }


def render_comparison(outcome: dict) -> str:
    """Human-readable table for one :func:`compare_history` outcome."""
    from repro.eval.report import render_table

    rows = [
        [
            row["metric"],
            f"{row['previous']:.3f}",
            f"{row['current']:.3f}",
            f"{row['ratio']:.2f}x",
            "REGRESSED" if row["regressed"] else "ok",
        ]
        for row in outcome["rows"]
    ]
    previous_sha = str(outcome["previous"].get("git_sha", "?"))[:12]
    current_sha = str(outcome["current"].get("git_sha", "?"))[:12]
    text = render_table(
        ["metric", "previous", "current", "ratio", "status"],
        rows,
        title=(
            f"Bench trajectory ({outcome['profile']} profile, "
            f"{previous_sha} -> {current_sha}, "
            f"band {outcome['tolerance']:.0%})"
        ),
    )
    drift = outcome.get("drift") or []
    if drift:
        drift_rows = [
            [
                row["metric"],
                f"{row['window_best']:.3f}",
                f"{row['current']:.3f}",
                f"{row['ratio']:.2f}x",
                "DRIFTED" if row["drifted"] else "ok",
            ]
            for row in drift
        ]
        text += "\n" + render_table(
            ["metric", "window best", "current", "ratio", "status"],
            drift_rows,
            title=(
                f"Windowed drift (last {outcome.get('drift_window', DRIFT_WINDOW)} "
                f"entries, band {outcome.get('drift_tolerance', DRIFT_TOLERANCE):.0%})"
            ),
        )
    return text
