"""Unit tests for the SQL planner (SQL text → results via run_sql)."""

import pytest

from repro.errors import BindError, PlanError, SchemaError
from repro.sql import plan_sql, run_sql
from tests.error_codes import raises_code


class TestProjectionPlanning:
    def test_star_expansion(self, proposal_db):
        result = run_sql(proposal_db, "SELECT * FROM Proposal")
        assert result.schema.names == ("Company", "Proposal", "Funding")
        assert len(result) == 5

    def test_qualified_star(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT p.* FROM Proposal p JOIN CompanyInfo c ON p.Company = c.Company",
        )
        assert result.schema.names == ("Company", "Proposal", "Funding")

    def test_star_with_unknown_qualifier(self, proposal_db):
        with pytest.raises(PlanError):
            plan_sql(proposal_db, "SELECT zzz.* FROM Proposal")

    def test_expression_select(self, proposal_db):
        result = run_sql(
            proposal_db, "SELECT Funding * 2 AS double FROM Proposal"
        )
        assert result.schema.names == ("double",)

    def test_unknown_table(self, proposal_db):
        with raises_code(SchemaError, "UnknownTableError"):
            plan_sql(proposal_db, "SELECT * FROM missing")

    def test_unknown_column(self, proposal_db):
        from repro.errors import UnknownColumnError

        with pytest.raises(UnknownColumnError):
            plan_sql(proposal_db, "SELECT bogus FROM Proposal")


class TestWhereAndJoin:
    def test_where(self, proposal_db):
        result = run_sql(
            proposal_db, "SELECT Company FROM Proposal WHERE Funding < 1.0"
        )
        assert sorted(row.values[0] for row in result) == ["B", "B", "D"]

    def test_join_on(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT p.Company, c.Income FROM Proposal p "
            "JOIN CompanyInfo c ON p.Company = c.Company",
        )
        assert len(result) == 4  # A, B, B, C match

    def test_left_join_includes_unmatched(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT p.Company, c.Income FROM Proposal p "
            "LEFT JOIN CompanyInfo c ON p.Company = c.Company",
        )
        unmatched = [row for row in result if row.values[1] is None]
        assert any(row.values[0] == "D" for row in unmatched)

    def test_comma_cross_product(self, proposal_db):
        result = run_sql(
            proposal_db, "SELECT p.Company FROM Proposal p, CompanyInfo c"
        )
        assert len(result) == 20

    def test_derived_table(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT cand.Company FROM "
            "(SELECT DISTINCT Company FROM Proposal WHERE Funding < 1.0) cand",
        )
        assert sorted(row.values[0] for row in result) == ["B", "D"]


class TestAggregatePlanning:
    def test_group_by_with_aliases(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT Company, COUNT(*) AS n, SUM(Funding) AS total "
            "FROM Proposal GROUP BY Company",
        )
        by_company = {row.values[0]: row.values[1:] for row in result}
        assert by_company["B"] == (2, pytest.approx(1.7))

    def test_having(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT Company FROM Proposal GROUP BY Company HAVING COUNT(*) > 1",
        )
        assert [row.values[0] for row in result] == ["B"]

    def test_aggregate_arithmetic(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT SUM(Funding) / COUNT(*) AS mean FROM Proposal",
        )
        assert result.rows[0].values[0] == pytest.approx(5.0 / 5)

    def test_global_aggregate(self, proposal_db):
        result = run_sql(proposal_db, "SELECT COUNT(*) FROM Proposal")
        assert result.rows[0].values == (5,)
        assert result.schema.names == ("COUNT(*)",)

    def test_bare_column_outside_group_by_rejected(self, proposal_db):
        with pytest.raises(BindError):
            plan_sql(
                proposal_db,
                "SELECT Funding, COUNT(*) FROM Proposal GROUP BY Company",
            )

    def test_nested_aggregate_rejected(self, proposal_db):
        with pytest.raises(PlanError):
            plan_sql(proposal_db, "SELECT SUM(COUNT(*)) FROM Proposal")

    def test_qualified_group_key(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT p.Company, COUNT(*) FROM Proposal p GROUP BY p.Company",
        )
        assert len(result) == 4

    def test_count_distinct(self, proposal_db):
        result = run_sql(
            proposal_db, "SELECT COUNT(DISTINCT Company) FROM Proposal"
        )
        assert result.rows[0].values == (4,)


class TestSetAndTrailerPlanning:
    def test_union_distinct(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT Company FROM Proposal UNION SELECT Company FROM CompanyInfo",
        )
        assert sorted(row.values[0] for row in result) == ["A", "B", "C", "D", "E"]

    def test_except(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT Company FROM Proposal EXCEPT SELECT Company FROM CompanyInfo",
        )
        values = sorted(row.values[0] for row in result)
        # D never appears in CompanyInfo; A/B/C survive probabilistically.
        assert "D" in values

    def test_order_by_name(self, proposal_db):
        result = run_sql(
            proposal_db, "SELECT Company FROM Proposal ORDER BY Company DESC"
        )
        assert result.rows[0].values[0] == "D"

    def test_order_by_position(self, proposal_db):
        result = run_sql(
            proposal_db, "SELECT Company, Funding FROM Proposal ORDER BY 2"
        )
        assert result.rows[0].values[1] == 0.6

    def test_order_by_position_out_of_range(self, proposal_db):
        with pytest.raises(PlanError):
            plan_sql(proposal_db, "SELECT Company FROM Proposal ORDER BY 5")

    def test_limit_offset(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT Company FROM Proposal ORDER BY Company LIMIT 2 OFFSET 1",
        )
        assert [row.values[0] for row in result] == ["B", "B"]

    def test_offset_without_limit(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT Company FROM Proposal ORDER BY Company LIMIT 100 OFFSET 4",
        )
        assert len(result) == 1

    def test_order_inside_set_operand_rejected(self, proposal_db):
        from repro.sql import parse, plan_statement
        from repro.sql.ast import SetStatement

        left = parse("SELECT Company FROM Proposal ORDER BY 1")
        right = parse("SELECT Company FROM CompanyInfo")
        with pytest.raises(PlanError):
            plan_statement(proposal_db, SetStatement(left, right, "union"))

    def test_order_by_dropped_input_column(self, proposal_db):
        # ORDER BY may reference a column the SELECT list dropped.
        result = run_sql(
            proposal_db,
            "SELECT Company FROM Proposal ORDER BY Funding DESC",
        )
        assert result.schema.names == ("Company",)
        assert result.rows[0].values[0] == "A"  # funding 1.5 first

    def test_order_by_expression_over_input(self, proposal_db):
        result = run_sql(
            proposal_db,
            "SELECT Company FROM Proposal ORDER BY Funding * -1",
        )
        assert result.rows[0].values[0] == "A"

    def test_order_by_unknown_column_still_errors(self, proposal_db):
        from repro.errors import UnknownColumnError

        with pytest.raises(UnknownColumnError):
            run_sql(
                proposal_db, "SELECT Company FROM Proposal ORDER BY bogus"
            )

    def test_order_by_input_column_with_distinct_rejected(self, proposal_db):
        # DISTINCT output has no stable mapping to dropped input columns.
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_sql(
                proposal_db,
                "SELECT DISTINCT Company FROM Proposal ORDER BY Funding",
            )

    def test_optimized_and_raw_plans_agree(self, proposal_db):
        sql = (
            "SELECT p.Company FROM Proposal p "
            "JOIN CompanyInfo c ON p.Company = c.Company "
            "WHERE p.Funding < 1.2 AND c.Income > 0.5"
        )
        optimized = run_sql(proposal_db, sql, optimized=True)
        raw = run_sql(proposal_db, sql, optimized=False)
        assert sorted(optimized.values()) == sorted(raw.values())
