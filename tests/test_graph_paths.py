"""Path enumeration, combiners, and graph maintenance under churn."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WarpGateConfig
from repro.core.warpgate import WarpGate
from repro.graph.joingraph import JoinGraph
from repro.graph.paths import (
    COMBINERS,
    JoinEdge,
    enumerate_paths,
    format_table,
    parse_table,
    reachable_tables,
    resolve_combiner,
)
from repro.storage.schema import ColumnRef

DIM = 8


def edge(left: str, right: str, confidence: float) -> JoinEdge:
    a, b = sorted((ColumnRef.parse(left), ColumnRef.parse(right)), key=str)
    return JoinEdge(a, b, confidence, None, confidence)


def adjacency_of(*edges: JoinEdge) -> dict:
    grid: dict = {}
    for item in edges:
        left, right = item.tables
        grid.setdefault(left, {})[right] = item
        grid.setdefault(right, {})[left] = item
    return grid


A, B, C, D = ("db", "a"), ("db", "b"), ("db", "c"), ("db", "d")


class TestParseFormat:
    def test_round_trip(self):
        assert parse_table("db.orders") == ("db", "orders")
        assert format_table(("db", "orders")) == "db.orders"

    def test_bare_table_name(self):
        assert parse_table("orders") == ("", "orders")
        assert format_table(("", "orders")) == "orders"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_table("  ")


class TestCombiners:
    def test_product_multiplies(self):
        assert COMBINERS["product"]([0.5, 0.5]) == pytest.approx(0.25)

    def test_min_takes_weakest_link(self):
        assert COMBINERS["min"]([0.9, 0.4, 0.8]) == pytest.approx(0.4)

    def test_resolve_accepts_callable(self):
        assert resolve_combiner(max)([0.1, 0.9]) == pytest.approx(0.9)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown combiner"):
            resolve_combiner("mean")


class TestEnumeratePaths:
    def setup_method(self):
        self.grid = adjacency_of(
            edge("db.a.x", "db.b.x", 0.9),
            edge("db.b.y", "db.c.y", 0.8),
            edge("db.a.z", "db.c.z", 0.6),
            edge("db.c.w", "db.d.w", 0.7),
        )

    def test_direct_path_found(self):
        paths = enumerate_paths(self.grid, A, B, max_hops=1)
        assert len(paths) == 1
        assert paths[0].tables == (A, B)
        assert paths[0].hops == 1
        assert paths[0].score == pytest.approx(0.9)

    def test_ranked_by_combined_score(self):
        # a->c direct (0.6) vs a->b->c (0.9 * 0.8 = 0.72): 2-hop wins.
        paths = enumerate_paths(self.grid, A, C, max_hops=2)
        assert [path.tables for path in paths] == [(A, B, C), (A, C)]
        assert paths[0].score == pytest.approx(0.72)

    def test_min_combiner_changes_scores(self):
        paths = enumerate_paths(self.grid, A, C, max_hops=2, combiner="min")
        by_tables = {path.tables: path.score for path in paths}
        assert by_tables[(A, B, C)] == pytest.approx(0.8)
        assert by_tables[(A, C)] == pytest.approx(0.6)

    def test_max_hops_bounds_search(self):
        assert enumerate_paths(self.grid, A, D, max_hops=2) != []
        three_hop = enumerate_paths(self.grid, A, D, max_hops=3)
        assert (A, B, C, D) in [path.tables for path in three_hop]

    def test_limit_truncates_after_ranking(self):
        paths = enumerate_paths(self.grid, A, C, max_hops=2, limit=1)
        assert len(paths) == 1
        assert paths[0].tables == (A, B, C)

    def test_simple_paths_only(self):
        for path in enumerate_paths(self.grid, A, D, max_hops=3, limit=None):
            assert len(set(path.tables)) == len(path.tables)

    def test_no_path_returns_empty(self):
        lonely = ("db", "island")
        grid = dict(self.grid)
        grid[lonely] = {}
        assert enumerate_paths(grid, A, lonely, max_hops=3) == []

    def test_same_table_rejected(self):
        with pytest.raises(ValueError):
            enumerate_paths(self.grid, A, A, max_hops=2)

    def test_bad_max_hops_rejected(self):
        with pytest.raises(ValueError):
            enumerate_paths(self.grid, A, B, max_hops=0)

    def test_to_dict_and_describe(self):
        path = enumerate_paths(self.grid, A, C, max_hops=2)[0]
        payload = path.to_dict()
        assert payload["tables"] == ["db.a", "db.b", "db.c"]
        assert payload["hops"] == 2
        assert payload["score"] == pytest.approx(0.72)
        assert "db.a" in path.describe() and "-[0.900]-" in path.describe()


class TestReachable:
    def test_hop_counts_are_minimal(self):
        grid = adjacency_of(
            edge("db.a.x", "db.b.x", 0.9),
            edge("db.b.y", "db.c.y", 0.8),
            edge("db.a.z", "db.c.z", 0.6),
            edge("db.c.w", "db.d.w", 0.7),
        )
        hops = reachable_tables(grid, A, max_hops=3)
        assert hops == {B: 1, C: 1, D: 2}

    def test_max_hops_truncates_frontier(self):
        grid = adjacency_of(
            edge("db.a.x", "db.b.x", 0.9),
            edge("db.b.y", "db.c.y", 0.8),
            edge("db.c.w", "db.d.w", 0.7),
        )
        assert reachable_tables(grid, A, max_hops=1) == {B: 1}
        assert reachable_tables(grid, A, max_hops=2) == {B: 1, C: 2}


# -- incremental maintenance == full rebuild (property) ---------------------------


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    vector = rng.normal(size=DIM).astype(np.float32)
    return vector / np.linalg.norm(vector)


def bulk_engine() -> WarpGate:
    engine = WarpGate(WarpGateConfig(model_name="hashing", dim=DIM))
    engine._indexed = True
    return engine


def graph_snapshot(graph: JoinGraph) -> dict:
    return {
        (str(item.left), str(item.right)): (item.cosine, item.confidence)
        for item in graph.edges()
    }


def all_paths_snapshot(graph: JoinGraph) -> dict:
    tables = graph.tables()
    snapshot = {}
    for src in tables:
        for dst in tables:
            if src != dst:
                snapshot[(src, dst)] = [
                    (path.tables, round(path.score, 6))
                    for path in graph.find_paths(src, dst, max_hops=3, limit=None)
                ]
    return snapshot


class TestChurnEquivalence:
    """`find_paths` after add/drop/refresh churn matches a from-scratch build.

    One graph rides an engine through random mutations (with the
    service's invalidation discipline), the other is built fresh over the
    surviving content.
    """

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_incremental_matches_fresh(self, seed):
        rng = np.random.default_rng(seed)
        engine = bulk_engine()
        graph = JoinGraph(engine, edge_threshold=0.6)
        live: dict[ColumnRef, np.ndarray] = {}
        for step in range(50):
            roll = rng.random()
            if live and roll < 0.3:
                victim = sorted(live, key=str)[int(rng.integers(len(live)))]
                engine._index.remove(victim)
                del live[victim]
                graph.invalidate_table(victim.table_key)
            elif live and roll < 0.45:
                victim = sorted(live, key=str)[int(rng.integers(len(live)))]
                refreshed = unit_vector(rng)
                engine._index.update(victim, refreshed)
                live[victim] = refreshed
                graph.invalidate_table(victim.table_key)
            else:
                ref = ColumnRef(
                    "db", f"t{int(rng.integers(6))}", f"c{step}"
                )
                vector = unit_vector(rng)
                engine._index.add(ref, vector)
                live[ref] = vector
                graph.invalidate_table(ref.table_key)
            if rng.random() < 0.25:
                graph.ensure_current()  # interleave syncs mid-churn
        graph.ensure_current()

        fresh_engine = bulk_engine()
        for ref in sorted(live, key=str):
            fresh_engine._index.add(ref, live[ref])
        fresh = JoinGraph(fresh_engine, edge_threshold=0.6)
        fresh.ensure_current()

        churned_edges = graph_snapshot(graph)
        fresh_edges = graph_snapshot(fresh)
        assert churned_edges.keys() == fresh_edges.keys()
        for pair, (cosine, confidence) in churned_edges.items():
            assert cosine == pytest.approx(fresh_edges[pair][0], abs=1e-6)
            assert confidence == pytest.approx(fresh_edges[pair][1], abs=1e-6)
        assert graph.tables() == fresh.tables()
        assert all_paths_snapshot(graph) == all_paths_snapshot(fresh)

    def test_unannounced_mutation_triggers_full_resync(self):
        """A generation move with no membership diff rebuilds everything."""
        rng = np.random.default_rng(7)
        engine = bulk_engine()
        refs = [ColumnRef("db", f"t{i % 3}", f"c{i}") for i in range(9)]
        for ref in refs:
            engine._index.add(ref, unit_vector(rng))
        graph = JoinGraph(engine, edge_threshold=0.0)
        graph.ensure_current()
        # In-place refresh WITHOUT invalidate_table: membership unchanged.
        engine._index.update(refs[0], unit_vector(rng))
        assert graph.ensure_current() is True
        fresh = JoinGraph(engine, edge_threshold=0.0)
        fresh.ensure_current()
        assert graph_snapshot(graph) == graph_snapshot(fresh)


class TestPruneEquivalence:
    """Branch-and-bound pruning must be invisible in the results.

    A named monotone combiner with a ``limit`` activates the
    best-possible-score prune inside :func:`enumerate_paths`; an
    arithmetically identical *callable* combiner disables it.  Over
    random graphs — including heavy score ties, which exercise the
    strict-inequality boundary the lexical tie-break depends on — both
    enumerations must return identical paths and identical float scores.
    """

    @staticmethod
    def random_adjacency(rng: np.random.Generator, tie_pool: list[float] | None):
        tables = [f"db.t{i}" for i in range(int(rng.integers(4, 9)))]
        edges = []
        for i, left in enumerate(tables):
            for right in tables[i + 1 :]:
                if rng.random() < 0.55:
                    if tie_pool is not None:
                        confidence = float(tie_pool[int(rng.integers(len(tie_pool)))])
                    else:
                        confidence = float(rng.uniform(0.05, 1.0))
                    edges.append(edge(f"{left}.x", f"{right}.y", confidence))
        return tables, adjacency_of(*edges)

    @staticmethod
    def unpruned(adjacency, src, dst, *, max_hops, limit, combiner):
        reference = dict(COMBINERS)  # named → equivalent plain callable
        return enumerate_paths(
            adjacency,
            src,
            dst,
            max_hops=max_hops,
            limit=limit,
            combiner=lambda scores, name=combiner: reference[name](list(scores)),
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.booleans(), st.sampled_from(["product", "min"]))
    def test_pruned_equals_unpruned(self, seed, ties, combiner):
        rng = np.random.default_rng(seed)
        tie_pool = [0.3, 0.7, 0.9] if ties else None
        tables, adjacency = self.random_adjacency(rng, tie_pool)
        src, dst = parse_table(tables[0]), parse_table(tables[-1])
        for limit in (1, 3, None):
            got = enumerate_paths(
                adjacency, src, dst, max_hops=4, limit=limit, combiner=combiner
            )
            want = self.unpruned(
                adjacency, src, dst, max_hops=4, limit=limit, combiner=combiner
            )
            assert [(p.tables, p.score) for p in got] == [
                (p.tables, p.score) for p in want
            ]

    def test_product_prune_disabled_for_super_unit_confidence(self):
        """Confidences > 1 break product monotonicity; prune must stand down."""
        grid = adjacency_of(
            edge("db.a.x", "db.b.y", 0.4),
            edge("db.b.y", "db.d.y", 1.5),
            edge("db.a.x", "db.c.y", 0.9),
            edge("db.c.y", "db.d.y", 0.1),
        )
        got = enumerate_paths(grid, A, D, max_hops=2, limit=1, combiner="product")
        # a-b-d scores 0.4*1.5=0.6 and would be pruned at the 0.4 prefix
        # if the bound assumed factors <= 1; correctness requires it wins.
        assert got[0].tables == (A, B, D)
        assert got[0].score == pytest.approx(0.6)
