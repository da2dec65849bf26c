"""Unit tests for the SQL parser (AST shape, not execution)."""

from repro.algebra.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
)
from repro.errors import ReproError
from repro.sql import parse
from repro.sql.ast import (
    AggregateCall,
    DerivedTable,
    NamedTable,
    SelectStatement,
    SetStatement,
    Star,
)
from tests.error_codes import raises_code


class TestSelectCore:
    def test_star(self):
        statement = parse("SELECT * FROM t")
        assert isinstance(statement, SelectStatement)
        assert isinstance(statement.items[0].expression, Star)
        assert statement.from_tables == [NamedTable("t", None)]

    def test_qualified_star(self):
        statement = parse("SELECT p.* FROM proposal p")
        star = statement.items[0].expression
        assert isinstance(star, Star) and star.table == "p"

    def test_column_aliases(self):
        statement = parse("SELECT a AS x, b y, c FROM t")
        assert [item.alias for item in statement.items] == ["x", "y", None]

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct
        assert not parse("SELECT ALL a FROM t").distinct

    def test_table_alias(self):
        statement = parse("SELECT a FROM t AS u")
        assert statement.from_tables == [NamedTable("t", "u")]

    def test_comma_join(self):
        statement = parse("SELECT a FROM t, u")
        assert len(statement.from_tables) == 2

    def test_derived_table(self):
        statement = parse("SELECT a FROM (SELECT b FROM t) AS sub")
        derived = statement.from_tables[0]
        assert isinstance(derived, DerivedTable)
        assert derived.alias == "sub"

    def test_derived_table_requires_alias(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse("SELECT a FROM (SELECT b FROM t)")

    def test_missing_from_rejected(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse("SELECT 1")

    def test_trailing_garbage_rejected(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse("SELECT a FROM t extra garbage ,")


class TestJoins:
    def test_inner_join(self):
        statement = parse("SELECT a FROM t JOIN u ON t.id = u.id")
        assert statement.joins[0].kind == "inner"
        assert isinstance(statement.joins[0].condition, Comparison)

    def test_explicit_inner(self):
        assert parse("SELECT a FROM t INNER JOIN u ON t.x = u.x").joins[0].kind == "inner"

    def test_left_outer_join(self):
        assert parse("SELECT a FROM t LEFT OUTER JOIN u ON t.x = u.x").joins[0].kind == "left"
        assert parse("SELECT a FROM t LEFT JOIN u ON t.x = u.x").joins[0].kind == "left"

    def test_cross_join_no_condition(self):
        join = parse("SELECT a FROM t CROSS JOIN u").joins[0]
        assert join.kind == "cross" and join.condition is None

    def test_join_requires_on(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse("SELECT a FROM t JOIN u")

    def test_multiple_joins(self):
        statement = parse(
            "SELECT a FROM t JOIN u ON t.x = u.x LEFT JOIN v ON u.y = v.y"
        )
        assert [join.kind for join in statement.joins] == ["inner", "left"]


class TestExpressions:
    def where(self, condition):
        return parse(f"SELECT a FROM t WHERE {condition}").where

    def test_precedence_or_and(self):
        expression = self.where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expression, LogicalOr)
        assert isinstance(expression.right, LogicalAnd)

    def test_not_precedence(self):
        expression = self.where("NOT a = 1 AND b = 2")
        assert isinstance(expression, LogicalAnd)
        assert isinstance(expression.left, LogicalNot)

    def test_arithmetic_precedence(self):
        expression = self.where("a + b * c = 7")
        assert isinstance(expression, Comparison)
        assert expression.left.op == "+"
        assert expression.left.right.op == "*"

    def test_parentheses(self):
        expression = self.where("(a + b) * c = 7")
        assert expression.left.op == "*"

    def test_not_equal_normalized(self):
        assert self.where("a != 1").op == "<>"

    def test_is_null_and_not_null(self):
        assert isinstance(self.where("a IS NULL"), IsNull)
        expression = self.where("a IS NOT NULL")
        assert isinstance(expression, IsNull) and expression.negated

    def test_like_and_not_like(self):
        like = self.where("a LIKE 'x%'")
        assert isinstance(like, Like) and like.pattern == "x%"
        assert self.where("a NOT LIKE 'x%'").negated

    def test_in_list(self):
        expression = self.where("a IN (1, 2, 3)")
        assert isinstance(expression, InList)
        assert len(expression.options) == 3

    def test_not_in(self):
        assert self.where("a NOT IN (1)").negated

    def test_between(self):
        expression = self.where("a BETWEEN 1 AND 5")
        assert isinstance(expression, Between)

    def test_not_without_predicate_rejected(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse("SELECT a FROM t WHERE a NOT 5")

    def test_literals(self):
        expression = self.where("a = 'text'")
        assert isinstance(expression.right, Literal)
        assert self.where("a = NULL").right.value is None
        assert self.where("a = TRUE").right.value is True
        assert self.where("a = FALSE").right.value is False

    def test_qualified_column(self):
        expression = self.where("t.a = 1")
        assert isinstance(expression.left, ColumnRef)
        assert expression.left.table == "t"

    def test_unary_minus(self):
        from repro.algebra.expressions import Negate

        assert isinstance(self.where("a = -1").right, Negate)

    def test_function_call(self):
        from repro.algebra.expressions import FunctionCall

        expression = self.where("LENGTH(a) > 3")
        assert isinstance(expression.left, FunctionCall)

    def test_concat_becomes_plus(self):
        expression = self.where("a || 'x' = 'yx'")
        assert expression.left.op == "+"


class TestAggregates:
    def test_count_star(self):
        statement = parse("SELECT COUNT(*) FROM t")
        call = statement.items[0].expression
        assert isinstance(call, AggregateCall)
        assert call.function == "COUNT" and call.argument is None

    def test_count_distinct(self):
        call = parse("SELECT COUNT(DISTINCT a) FROM t").items[0].expression
        assert call.distinct

    def test_aggregate_in_arithmetic(self):
        expression = parse("SELECT SUM(a) / COUNT(*) FROM t").items[0].expression
        assert expression.op == "/"
        assert isinstance(expression.left, AggregateCall)

    def test_group_by_and_having(self):
        statement = parse(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None


class TestSetOperationsAndTrailers:
    def test_union(self):
        statement = parse("SELECT a FROM t UNION SELECT a FROM u")
        assert isinstance(statement, SetStatement)
        assert statement.kind == "union"

    def test_union_all(self):
        assert parse("SELECT a FROM t UNION ALL SELECT a FROM u").kind == "union_all"

    def test_intersect_and_except(self):
        assert parse("SELECT a FROM t INTERSECT SELECT a FROM u").kind == "intersect"
        assert parse("SELECT a FROM t EXCEPT SELECT a FROM u").kind == "except"

    def test_chained_set_operations_left_associative(self):
        statement = parse(
            "SELECT a FROM t UNION SELECT a FROM u EXCEPT SELECT a FROM v"
        )
        assert statement.kind == "except"
        assert isinstance(statement.left, SetStatement)

    def test_order_by(self):
        statement = parse("SELECT a FROM t ORDER BY a DESC, b ASC, 2")
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending
        assert statement.order_by[2].expression == 2

    def test_limit_offset(self):
        statement = parse("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert statement.limit == 10 and statement.offset == 5

    def test_order_attaches_to_set_statement(self):
        statement = parse("SELECT a FROM t UNION SELECT a FROM u ORDER BY 1 LIMIT 3")
        assert isinstance(statement, SetStatement)
        assert statement.limit == 3
        assert len(statement.order_by) == 1

    def test_limit_requires_integer(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse("SELECT a FROM t LIMIT 'x'")
