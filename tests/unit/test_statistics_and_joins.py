"""Unit tests for table statistics and statistics-driven join reordering."""

import pytest

from repro.algebra import Query, col, execute, lit, optimize
from repro.algebra.joins import reorder_joins
from repro.algebra.plan import Filter, Join, Project, Scan
from repro.sql import run_sql
from repro.storage import (
    Database,
    INTEGER,
    REAL,
    Schema,
    TEXT,
    collect_statistics,
)


@pytest.fixture
def db() -> Database:
    database = Database()
    big = database.create_table("big", Schema.of(("k", TEXT), ("x", INTEGER)))
    for index in range(120):
        big.insert([f"k{index % 30}", index])
    mid = database.create_table("mid", Schema.of(("k", TEXT), ("g", TEXT)))
    for index in range(30):
        mid.insert([f"k{index}", f"g{index % 4}"])
    small = database.create_table(
        "small", Schema.of(("g", TEXT), ("label", TEXT))
    )
    for index in range(4):
        small.insert([f"g{index}", f"L{index}"])
    return database


class TestStatistics:
    def test_row_and_distinct_counts(self, db):
        statistics = collect_statistics(db.table("big"))
        assert statistics.row_count == 120
        assert statistics.column("k").distinct_count == 30
        assert statistics.column("x").distinct_count == 120

    def test_numeric_min_max(self, db):
        statistics = collect_statistics(db.table("big"))
        column = statistics.column("x")
        assert column.minimum == 0
        assert column.maximum == 119

    def test_null_counting(self):
        database = Database()
        table = database.create_table("t", Schema.of(("v", REAL)))
        table.insert([1.0])
        table.insert([None])
        table.insert([None])
        statistics = collect_statistics(table)
        assert statistics.column("v").null_count == 2
        assert statistics.column("v").null_fraction == pytest.approx(2 / 3)

    def test_selectivity_equals(self, db):
        statistics = collect_statistics(db.table("big"))
        # 30 distinct keys, no nulls: 1/30 of rows match an equality.
        assert statistics.column("k").selectivity_equals() == pytest.approx(
            1 / 30
        )

    def test_empty_table(self):
        database = Database()
        table = database.create_table("t", Schema.of(("v", REAL)))
        statistics = collect_statistics(table)
        assert statistics.row_count == 0
        assert statistics.column("v").selectivity_equals() == 0.0


def _scan_order(plan):
    """Table names of Scan leaves in left-to-right order."""
    found = []

    def walk(node):
        if isinstance(node, Scan):
            found.append(node.table.name)
        for child in node.children:
            walk(child)

    walk(plan)
    return found


class TestJoinReordering:
    def _chain_plan(self, db, with_filter=False):
        plan = Join(
            Join(
                Scan(db.table("big")),
                Scan(db.table("mid")),
                col("big.k") == col("mid.k"),
            ),
            Scan(db.table("small")),
            col("mid.g") == col("small.g"),
        )
        if with_filter:
            return Filter(plan, col("small.label") == lit("L1"))
        return plan

    def test_smallest_relation_moves_first(self, db):
        reordered = reorder_joins(self._chain_plan(db))
        assert _scan_order(reordered)[0] == "small"

    def test_results_identical(self, db):
        plan = self._chain_plan(db, with_filter=True)
        raw = execute(plan)
        reordered = execute(optimize(plan))
        assert sorted(raw.values()) == sorted(reordered.values())

    def test_lineage_semantically_identical(self, db):
        # Join commutation permutes AND children (structural order is
        # insertion order); variables and probabilities must agree exactly.
        plan = self._chain_plan(db, with_filter=True)

        def summary(result):
            return sorted(
                (row.values, tuple(sorted(row.lineage.variables)), confidence)
                for row, confidence in result.with_confidences(db)
            )

        assert summary(execute(plan)) == summary(execute(optimize(plan)))

    def test_column_order_preserved(self, db):
        plan = self._chain_plan(db)
        reordered = reorder_joins(plan)
        assert isinstance(reordered, Project)
        assert [c.qualified_name for c in reordered.schema] == [
            c.qualified_name for c in plan.schema
        ]

    def test_two_way_join_untouched(self, db):
        plan = Join(
            Scan(db.table("big")),
            Scan(db.table("mid")),
            col("big.k") == col("mid.k"),
        )
        assert reorder_joins(plan) is not None
        assert _scan_order(reorder_joins(plan)) == ["big", "mid"]

    def test_left_join_cluster_not_reordered(self, db):
        plan = Join(
            Join(
                Scan(db.table("big")),
                Scan(db.table("mid")),
                col("big.k") == col("mid.k"),
                kind="left",
            ),
            Scan(db.table("small")),
            col("mid.g") == col("small.g"),
        )
        reordered = reorder_joins(plan)
        assert _scan_order(reordered) == ["big", "mid", "small"]

    def test_theta_join_cluster_not_reordered(self, db):
        plan = Join(
            Join(
                Scan(db.table("big")),
                Scan(db.table("mid")),
                col("big.x") > lit(5),
            ),
            Scan(db.table("small")),
            col("mid.g") == col("small.g"),
        )
        reordered = reorder_joins(plan)
        assert _scan_order(reordered) == ["big", "mid", "small"]

    def test_implicit_join_through_sql(self, db):
        sql = (
            "SELECT big.x FROM big, mid, small "
            "WHERE big.k = mid.k AND mid.g = small.g AND small.label = 'L2'"
        )
        optimized = run_sql(db, sql)
        raw = run_sql(db, sql, optimized=False)
        assert sorted(optimized.values()) == sorted(raw.values())

    def test_disconnected_relation_joins_last(self, db):
        # small is unconnected: it must come last as a cross product.
        plan = Join(
            Join(
                Scan(db.table("big")),
                Scan(db.table("mid")),
                col("big.k") == col("mid.k"),
            ),
            Scan(db.table("small")),
            None,
            "cross",
        )
        reordered = reorder_joins(plan)
        raw = execute(plan)
        new = execute(reordered)
        assert sorted(
            repr(v) for v in raw.values()
        ) == sorted(repr(v) for v in new.values())

    def test_query_builder_round_trip(self, db):
        q = (
            Query.scan(db.table("big"))
            .join(db.table("mid"), on=col("big.k") == col("mid.k"))
            .join(db.table("small"), on=col("mid.g") == col("small.g"))
            .where(col("small.label") == lit("L0"))
            .select("big.x", "small.label")
        )
        assert sorted(q.run().values()) == sorted(
            q.run(optimized=False).values()
        )
