"""Unit tests for CASE WHEN expressions (algebra + SQL)."""

import pytest

from repro.algebra import CaseExpression, col, lit
from repro.errors import BindError, ReproError
from repro.sql import parse, run_sql
from repro.storage import Database, REAL, Schema, TEXT
from tests.error_codes import raises_code


@pytest.fixture
def db() -> Database:
    database = Database()
    table = database.create_table(
        "t", Schema.of(("name", TEXT), ("score", REAL))
    )
    for name, score in [("a", 95.0), ("b", 72.0), ("c", 45.0), ("d", None)]:
        table.insert([name, score])
    return database


SCHEMA = Schema.of(("name", TEXT), ("score", REAL))


class TestCaseExpressionDirect:
    def test_first_true_branch_wins(self):
        case = CaseExpression(
            [
                (col("score") >= lit(90.0), lit("A")),
                (col("score") >= lit(60.0), lit("B")),
            ],
            lit("C"),
        )
        bound = case.bind(SCHEMA)
        assert bound.evaluate(("x", 95.0)) == "A"
        assert bound.evaluate(("x", 72.0)) == "B"
        assert bound.evaluate(("x", 10.0)) == "C"

    def test_null_condition_skips_branch(self):
        case = CaseExpression(
            [(col("score") >= lit(90.0), lit("A"))], lit("other")
        )
        bound = case.bind(SCHEMA)
        # NULL comparison is not TRUE: falls through to ELSE.
        assert bound.evaluate(("x", None)) == "other"

    def test_missing_else_yields_null(self):
        case = CaseExpression([(col("score") > lit(90.0), lit("A"))])
        assert case.bind(SCHEMA).evaluate(("x", 10.0)) is None

    def test_numeric_branches_widen(self):
        case = CaseExpression(
            [(col("score") > lit(50.0), lit(1))], lit(0.5)
        )
        bound = case.bind(SCHEMA)
        assert bound.dtype.value == "REAL"
        assert bound.evaluate(("x", 60.0)) == 1.0

    def test_mixed_branch_types_rejected(self):
        case = CaseExpression(
            [(col("score") > lit(50.0), lit("text"))], lit(1)
        )
        with pytest.raises(BindError):
            case.bind(SCHEMA)

    def test_null_branches_are_polymorphic(self):
        case = CaseExpression(
            [(col("score") > lit(50.0), lit(None))], lit(3)
        )
        bound = case.bind(SCHEMA)
        assert bound.evaluate(("x", 60.0)) is None
        assert bound.evaluate(("x", 10.0)) == 3

    def test_non_boolean_condition_rejected(self):
        case = CaseExpression([(col("score"), lit(1))])
        with pytest.raises(BindError):
            case.bind(SCHEMA)

    def test_empty_whens_rejected(self):
        with pytest.raises(BindError):
            CaseExpression([])

    def test_references_cover_all_branches(self):
        case = CaseExpression(
            [(col("score") > lit(1.0), col("name"))], col("t.other")
        )
        assert case.references() == {
            (None, "score"),
            (None, "name"),
            ("t", "other"),
        }


class TestCaseInSql:
    def test_projection(self, db):
        result = run_sql(
            db,
            "SELECT name, CASE WHEN score >= 90 THEN 'A' "
            "WHEN score >= 60 THEN 'B' ELSE 'C' END AS grade "
            "FROM t ORDER BY name",
        )
        assert result.values() == [
            ("a", "A"),
            ("b", "B"),
            ("c", "C"),
            ("d", "C"),
        ]

    def test_in_where_clause(self, db):
        result = run_sql(
            db,
            "SELECT name FROM t WHERE "
            "CASE WHEN score IS NULL THEN 0.0 ELSE score END > 50",
        )
        assert sorted(row.values[0] for row in result) == ["a", "b"]

    def test_group_by_case_expression(self, db):
        result = run_sql(
            db,
            "SELECT CASE WHEN score > 50 THEN 1 ELSE 0 END AS hit, COUNT(*) "
            "FROM t GROUP BY CASE WHEN score > 50 THEN 1 ELSE 0 END",
        )
        assert sorted(result.values()) == [(0, 2), (1, 2)]

    def test_case_inside_aggregate(self, db):
        result = run_sql(
            db,
            "SELECT SUM(CASE WHEN score > 50 THEN 1 ELSE 0 END) FROM t",
        )
        assert result.rows[0].values == (2,)

    def test_aggregate_inside_case(self, db):
        result = run_sql(
            db,
            "SELECT CASE WHEN COUNT(*) > 3 THEN 'many' ELSE 'few' END FROM t",
        )
        assert result.rows[0].values == ("many",)

    def test_nested_case(self, db):
        result = run_sql(
            db,
            "SELECT CASE WHEN score IS NULL THEN 'none' ELSE "
            "CASE WHEN score > 50 THEN 'high' ELSE 'low' END END "
            "FROM t ORDER BY name",
        )
        assert [row.values[0] for row in result] == [
            "high",
            "high",
            "low",
            "none",
        ]

    def test_case_without_when_rejected(self, db):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse("SELECT CASE ELSE 1 END FROM t")

    def test_case_missing_end_rejected(self, db):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse("SELECT CASE WHEN a = 1 THEN 2 FROM t")
