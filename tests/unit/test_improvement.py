"""Unit tests for the simulated data-quality improvement service."""

import pytest

from repro.cost import LinearCost
from repro.errors import IncrementError
from repro.increment import (
    IncrementPlan,
    SimulatedImprovementService,
    SolverStats,
)
from repro.storage import Database, Schema, TEXT
from tests.error_codes import raises_code


@pytest.fixture
def db_and_tids():
    db = Database()
    table = db.create_table("t", Schema.of(("x", TEXT)))
    a = table.insert(["a"], confidence=0.3, cost_model=LinearCost(100.0))
    b = table.insert(["b"], confidence=0.5, cost_model=LinearCost(10.0))
    return db, a, b


def plan_for(targets):
    return IncrementPlan(dict(targets), 0.0, (), "test", SolverStats())


class TestQuoteAndApply:
    def test_quote_uses_current_confidences(self, db_and_tids):
        db, a, b = db_and_tids
        service = SimulatedImprovementService()
        quote = service.quote(db, plan_for({a: 0.5, b: 0.6}))
        assert quote == pytest.approx(100.0 * 0.2 + 10.0 * 0.1)

    def test_apply_updates_database_and_ledger(self, db_and_tids):
        db, a, b = db_and_tids
        service = SimulatedImprovementService()
        receipt = service.apply(db, plan_for({a: 0.5}))
        assert db.confidence_of(a) == 0.5
        assert receipt.total_cost == pytest.approx(20.0)
        assert receipt.tuples_improved == 1
        assert service.spent == pytest.approx(20.0)
        assert len(service.receipts) == 1

    def test_target_below_current_is_noop(self, db_and_tids):
        db, a, _b = db_and_tids
        service = SimulatedImprovementService()
        receipt = service.apply(db, plan_for({a: 0.2}))
        assert receipt.actions == []
        assert db.confidence_of(a) == 0.3

    def test_stale_plan_charges_remaining_increment(self, db_and_tids):
        db, a, _b = db_and_tids
        db.set_confidence(a, 0.45)  # database moved under the plan
        service = SimulatedImprovementService()
        receipt = service.apply(db, plan_for({a: 0.5}))
        assert receipt.total_cost == pytest.approx(100.0 * 0.05)

    def test_invalid_target_rejected(self, db_and_tids):
        db, a, _b = db_and_tids
        service = SimulatedImprovementService()
        with pytest.raises(IncrementError):
            service.apply(db, plan_for({a: 1.5}))


class TestBudget:
    def test_budget_enforced_before_apply(self, db_and_tids):
        db, a, _b = db_and_tids
        service = SimulatedImprovementService(budget=10.0)
        with raises_code(IncrementError, "ImprovementRejectedError"):
            service.apply(db, plan_for({a: 0.5}))  # costs 20
        # Nothing was written.
        assert db.confidence_of(a) == 0.3
        assert service.spent == 0.0

    def test_budget_accumulates(self, db_and_tids):
        db, a, b = db_and_tids
        service = SimulatedImprovementService(budget=24.0)
        service.apply(db, plan_for({a: 0.5}))  # costs 20, 4 remains
        with raises_code(IncrementError, "ImprovementRejectedError"):
            service.apply(db, plan_for({b: 1.0}))  # costs 5 > 4 remaining
        assert service.spent == pytest.approx(20.0)

    def test_budget_exact_fit(self, db_and_tids):
        db, _a, b = db_and_tids
        service = SimulatedImprovementService(budget=5.0)
        receipt = service.apply(db, plan_for({b: 1.0}))  # 10 * 0.5 = 5.0
        assert receipt.total_cost == pytest.approx(5.0)
