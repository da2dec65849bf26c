"""Unit tests for the fluent Query builder API."""

import pytest

from repro.algebra import AggregateSpec, Query, col, lit
from repro.errors import PlanError, SchemaError
from repro.storage import Database, REAL, Schema, TEXT
from tests.error_codes import raises_code


@pytest.fixture
def db() -> Database:
    database = Database()
    table = database.create_table(
        "sales", Schema.of(("region", TEXT), ("amt", REAL))
    )
    for region, amount, confidence in [
        ("east", 10.0, 0.9),
        ("east", 20.0, 0.8),
        ("west", 5.0, 0.7),
        ("west", 5.0, 0.6),
    ]:
        table.insert([region, amount], confidence=confidence)
    return database


class TestBuilderOperators:
    def test_where_select_chain(self, db):
        q = (
            Query.scan(db.table("sales"))
            .where(col("amt") > lit(7.0))
            .select("region", ("amt", "amount"))
        )
        result = q.run()
        assert result.schema.names == ("region", "amount")
        assert len(result) == 2

    def test_select_requires_items(self, db):
        with pytest.raises(PlanError):
            Query.scan(db.table("sales")).select()

    def test_distinct_helper(self, db):
        result = Query.scan(db.table("sales")).distinct().run()
        assert len(result) == 3  # the duplicate west row merges

    def test_group_by_and_aggregate(self, db):
        q = Query.scan(db.table("sales")).group_by(
            ["region"],
            [AggregateSpec("SUM", col("amt"), "total")],
        )
        assert sorted(q.run().values()) == [("east", 30.0), ("west", 10.0)]

    def test_global_aggregate(self, db):
        q = Query.scan(db.table("sales")).aggregate(
            AggregateSpec("COUNT", alias="n")
        )
        assert q.run().values() == [(4,)]

    def test_cross_join_with_alias(self, db):
        result = (
            Query.scan(db.table("sales"))
            .cross_join(Query.scan(db.table("sales"), alias="other"))
            .run()
        )
        assert len(result) == 16

    def test_self_cross_join_without_alias_rejected(self, db):
        with raises_code(SchemaError, "DuplicateColumnError"):
            Query.scan(db.table("sales")).cross_join(db.table("sales"))

    def test_join_accepts_table_directly(self, db):
        other = db.create_table("regions", Schema.of(("region", TEXT)))
        other.insert(["east"])
        q = Query.scan(db.table("sales")).join(
            other, on=col("sales.region") == col("regions.region")
        )
        assert len(q.run()) == 2

    def test_set_operations(self, db):
        east = Query.scan(db.table("sales")).where(
            col("region") == lit("east")
        ).select("region")
        west = Query.scan(db.table("sales")).where(
            col("region") == lit("west")
        ).select("region")
        assert len(east.union(west).run()) == 2
        assert len(east.union(west, all=True).run()) == 4
        assert len(east.intersect(west).run()) == 0
        assert len(east.except_(west).run()) == 1

    def test_order_and_limit(self, db):
        q = (
            Query.scan(db.table("sales"))
            .order_by(("amt", True), "region")
            .limit(2)
            .select("amt")
        )
        assert q.run().values() == [(20.0,), (10.0,)]

    def test_alias_then_qualified_reference(self, db):
        q = (
            Query.scan(db.table("sales"))
            .select("region", distinct=True)
            .alias("r")
            .where(col("r.region") == lit("east"))
        )
        assert q.run().values() == [("east",)]

    def test_explain_unoptimized_and_optimized(self, db):
        q = Query.scan(db.table("sales")).where(col("amt") > lit(1.0))
        assert "Filter" in q.explain(optimized=False)
        assert "Scan(sales)" in q.explain()

    def test_run_unoptimized_matches(self, db):
        q = (
            Query.scan(db.table("sales"))
            .where((col("amt") > lit(1.0)) & (col("region") == lit("east")))
            .select("amt")
        )
        assert sorted(q.run().values()) == sorted(
            q.run(optimized=False).values()
        )
