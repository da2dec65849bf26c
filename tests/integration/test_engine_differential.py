"""Differential engine testing over the paper's workloads.

Every scenario query — the §3.1 venture-capital running example and the
healthcare registry — must produce identical rows, lineage formulas, and
bit-identical confidences on the native and columnar engines, and the full
PCQE pipeline (policy filter → strategy finding → improvement) must reach
identical strategies and receipt costs whichever engine evaluated the
query.
"""

from __future__ import annotations

import pytest

from repro import PCQEngine, QueryRequest
from repro.sql import run_sql
from repro.workload import healthcare_database, venture_capital_database

HEALTHCARE_QUERIES = [
    "SELECT p.PatientId, t.Treatment, t.ResponseRate "
    "FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId "
    "WHERE p.Diagnosis = 'breast'",
    "SELECT DISTINCT Diagnosis FROM Patients WHERE Source = 'registry'",
    "SELECT p.PatientId, t.Treatment FROM Patients p "
    "JOIN Treatments t ON p.PatientId = t.PatientId "
    "WHERE p.Stage = 'IV' AND t.ResponseRate > 0.4",
    "SELECT PatientId FROM Patients WHERE Diagnosis = 'lung' "
    "UNION SELECT PatientId FROM Treatments WHERE Treatment = 'surgery'",
    "SELECT PatientId FROM Patients WHERE PatientId IN "
    "(SELECT PatientId FROM Treatments WHERE ResponseRate > 0.6)",
    # Aggregate: GROUP BY, COUNT(*)/COUNT(DISTINCT), REAL SUM/AVG/MIN/MAX.
    "SELECT Diagnosis, Stage, COUNT(*), COUNT(DISTINCT Source) "
    "FROM Patients GROUP BY Diagnosis, Stage",
    "SELECT Treatment, SUM(ResponseRate), AVG(ResponseRate), "
    "MIN(ResponseRate), MAX(ResponseRate) FROM Treatments GROUP BY Treatment",
    "SELECT COUNT(*), SUM(ResponseRate), MIN(PatientId) FROM Treatments",
    # Global aggregate over an empty input: one certain (TOP) row.
    "SELECT COUNT(*), SUM(ResponseRate) FROM Treatments WHERE ResponseRate > 2",
    "SELECT p.Diagnosis, COUNT(*) AS n, AVG(t.ResponseRate) AS rate "
    "FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId "
    "GROUP BY p.Diagnosis HAVING COUNT(*) > 1 ORDER BY rate DESC",
    # Sort: multi-key, DESC, ties (stability), ORDER BY + LIMIT.
    "SELECT PatientId, Stage, Diagnosis FROM Patients "
    "ORDER BY Stage DESC, Diagnosis, PatientId DESC",
    "SELECT Treatment, ResponseRate FROM Treatments ORDER BY Treatment",
    "SELECT PatientId, ResponseRate FROM Treatments "
    "ORDER BY ResponseRate DESC LIMIT 7",
]

#: Asks whose plans end in the operators that used to be native-only.
AGGREGATE_SORT_ASKS = [
    "SELECT p.Company, COUNT(*) AS n, SUM(p.Funding) AS total "
    "FROM Proposal p JOIN CompanyInfo c ON p.Company = c.Company "
    "GROUP BY p.Company ORDER BY n DESC, Company",
    "SELECT p.Company, c.Income FROM Proposal p JOIN CompanyInfo c "
    "ON p.Company = c.Company ORDER BY c.Income DESC, p.Company",
]


def assert_engines_agree(db, sql):
    native = run_sql(db, sql, engine="native")
    columnar = run_sql(db, sql, engine="columnar")
    assert [row.values for row in native.rows] == [
        row.values for row in columnar.rows
    ]
    assert [row.lineage for row in native.rows] == [
        row.lineage for row in columnar.rows
    ]
    assert native.confidences(db) == columnar.confidences(db)
    assert native.engine == "native" and columnar.engine == "columnar"
    return native, columnar


class TestRunningExampleDifferential:
    def test_candidate_query_identical_on_both_engines(self, running_example):
        native, columnar = assert_engines_agree(
            running_example.db, running_example.QUERY
        )
        values = {row.values[0] for row in columnar.rows}
        assert "BlueRiver" in values

    def test_blueriver_confidence_is_exact(self, running_example):
        result = run_sql(
            running_example.db, running_example.QUERY, engine="columnar"
        )
        by_company = dict(
            zip(
                [row.values[0] for row in result.rows],
                result.confidences(running_example.db),
            )
        )
        assert by_company["BlueRiver"] == pytest.approx(0.058)


class TestHealthcareDifferential:
    @pytest.mark.parametrize("sql", HEALTHCARE_QUERIES)
    def test_query_identical_on_both_engines(self, sql):
        scenario = healthcare_database(patients=120, seed=4)
        assert_engines_agree(scenario.db, sql)

    @pytest.mark.parametrize("patients", [0, 1, 2])
    def test_tiny_registries_run_columnar_and_agree(self, patients):
        scenario = healthcare_database(patients=patients, seed=4)
        for sql in HEALTHCARE_QUERIES:
            assert_engines_agree(scenario.db, sql)

    def test_auto_matches_native_on_larger_registry(self):
        """The default engine (what ``auto`` used to pick) vs native."""
        scenario = healthcare_database(patients=300, seed=11)
        sql = HEALTHCARE_QUERIES[0]
        native = run_sql(scenario.db, sql, engine="native")
        default = run_sql(scenario.db, sql)
        assert default.engine == "columnar"
        assert [row.values for row in native.rows] == [
            row.values for row in default.rows
        ]
        assert native.confidences(scenario.db) == default.confidences(
            scenario.db
        )


class TestPipelineDifferential:
    """Identical strategies and receipt costs regardless of engine."""

    @pytest.mark.parametrize("solver", ["heuristic", "greedy", "dnc"])
    def test_ask_costs_identical_across_engines(self, solver):
        self.assert_ask_identical(solver, None)

    @pytest.mark.parametrize("sql", AGGREGATE_SORT_ASKS)
    @pytest.mark.parametrize("solver", ["heuristic", "greedy", "dnc"])
    def test_aggregate_and_sort_ask_costs_identical(self, solver, sql):
        self.assert_ask_identical(solver, sql)

    @staticmethod
    def assert_ask_identical(solver, sql):
        """*sql* ``None`` asks the scenario's own candidate query."""
        replies = {}
        for engine_mode in ("native", "columnar"):
            scenario = venture_capital_database()
            engine = PCQEngine(
                scenario.db,
                scenario.policies,
                solver=solver,
                engine=engine_mode,
            )
            replies[engine_mode] = engine.execute(
                QueryRequest(sql or scenario.QUERY, "investment", 1.0),
                user="bob",
            )
        native, columnar = replies["native"], replies["columnar"]
        assert native.status == columnar.status
        assert native.threshold == columnar.threshold
        assert native.withheld_count == columnar.withheld_count
        assert [value for _, value in native.released] == [
            value for _, value in columnar.released
        ]
        if native.quote is None:
            assert columnar.quote is None
        else:
            assert columnar.quote is not None
            assert native.quote.cost == columnar.quote.cost
            assert native.quote.shortfall == columnar.quote.shortfall
        if native.receipt is None:
            assert columnar.receipt is None
        else:
            assert columnar.receipt is not None
            assert native.receipt.total_cost == columnar.receipt.total_cost
            assert (
                native.receipt.tuples_improved
                == columnar.receipt.tuples_improved
            )
