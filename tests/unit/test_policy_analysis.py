"""Unit tests for policy impact analysis."""

import pytest

from repro.cost import LinearCost
from repro.errors import ReproError
from repro.policy import (
    PolicyStore,
    policy_impact,
    table_confidence_profile,
    threshold_sweep,
)
from repro.sql import run_sql
from repro.storage import Database, REAL, Schema, TEXT
from tests.error_codes import raises_code


@pytest.fixture
def setup():
    db = Database()
    table = db.create_table("t", Schema.of(("k", TEXT), ("v", REAL)))
    for index, confidence in enumerate([0.1, 0.3, 0.5, 0.7, 0.9]):
        table.insert(
            [f"row{index}", float(index)],
            confidence=confidence,
            cost_model=LinearCost(100.0),
        )
    policies = PolicyStore(default_threshold=0.6)
    policies.add_role("analyst")
    policies.add_purpose("reporting")
    policies.add_user("u", roles=["analyst"])
    return db, policies


class TestConfidenceProfile:
    def test_profile_statistics(self, setup):
        db, _policies = setup
        profile = table_confidence_profile(db.table("t"))
        assert profile.count == 5
        assert profile.mean == pytest.approx(0.5)
        assert profile.minimum == 0.1 and profile.maximum == 0.9
        assert profile.quantiles[1] == pytest.approx(0.5)
        assert sum(profile.histogram) == 5

    def test_empty_table_profile(self):
        db = Database()
        table = db.create_table("e", Schema.of(("x", TEXT)))
        profile = table_confidence_profile(table)
        assert profile.count == 0
        assert profile.histogram == (0,) * 10


class TestThresholdSweep:
    def test_monotone_decreasing(self, setup):
        db, _policies = setup
        result = run_sql(db, "SELECT k FROM t")
        points = threshold_sweep(result, db)
        fractions = [fraction for _threshold, fraction in points]
        assert all(b <= a + 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == 1.0

    def test_custom_thresholds(self, setup):
        db, _policies = setup
        result = run_sql(db, "SELECT k FROM t")
        points = threshold_sweep(result, db, thresholds=[0.0, 0.5, 0.95])
        assert points[0] == (0.0, 1.0)
        assert points[1][1] == pytest.approx(2 / 5)
        assert points[2][1] == 0.0

    def test_invalid_threshold(self, setup):
        db, _policies = setup
        result = run_sql(db, "SELECT k FROM t")
        with raises_code(ReproError, "PolicyError"):
            threshold_sweep(result, db, thresholds=[1.5])

    def test_empty_result(self, setup):
        db, _policies = setup
        result = run_sql(db, "SELECT k FROM t WHERE v > 100")
        assert threshold_sweep(result, db, thresholds=[0.5]) == [(0.5, 1.0)]


class TestPolicyImpact:
    def test_reports_partition_and_cost(self, setup):
        db, policies = setup
        result = run_sql(db, "SELECT k FROM t")
        impact = policy_impact(db, policies, result, "u", "reporting")
        assert impact.threshold == 0.6
        assert impact.total_results == 5
        assert impact.released == 2
        assert impact.withheld == 3
        # Raising 0.1/0.3/0.5 rows to ~0.6 at 100/unit: 50+30+10 = 90-ish
        # (grid granularity makes it slightly above).
        assert impact.compliance_cost == pytest.approx(110.0, abs=30.0)
        assert impact.compliance_tuples == 3

    def test_zero_cost_when_already_compliant(self, setup):
        db, policies = setup
        result = run_sql(db, "SELECT k FROM t WHERE v > 2.5")
        impact = policy_impact(db, policies, result, "u", "reporting")
        assert impact.withheld == 0
        assert impact.compliance_cost == 0.0
        assert impact.released_fraction == 1.0

    def test_partial_target_fraction(self, setup):
        db, policies = setup
        result = run_sql(db, "SELECT k FROM t")
        full = policy_impact(db, policies, result, "u", "reporting", 1.0)
        partial = policy_impact(db, policies, result, "u", "reporting", 0.6)
        assert partial.compliance_cost < full.compliance_cost

    def test_infeasible_reports_none(self, setup):
        db, policies = setup
        policies.add_purpose("audit")
        policies.add_policy("analyst", "audit", 1.0)
        result = run_sql(db, "SELECT k FROM t")
        impact = policy_impact(db, policies, result, "u", "audit")
        assert impact.compliance_cost is None

    def test_custom_solver(self, setup):
        from repro.increment import solve_heuristic

        db, policies = setup
        result = run_sql(db, "SELECT k FROM t")
        impact = policy_impact(
            db, policies, result, "u", "reporting", solver=solve_heuristic
        )
        greedy_impact = policy_impact(db, policies, result, "u", "reporting")
        assert impact.compliance_cost <= greedy_impact.compliance_cost + 1e-6

    def test_empty_result_is_fully_released(self, setup):
        db, policies = setup
        result = run_sql(db, "SELECT k FROM t WHERE v > 100")
        impact = policy_impact(db, policies, result, "u", "reporting")
        assert impact.released_fraction == 1.0
        assert impact.compliance_cost == 0.0
