"""Unit tests for the PCQE engine (core framework)."""

import pytest

from repro import PCQEngine, QueryRequest, QueryStatus, make_solver
from repro.errors import ReproError
from repro.increment import SimulatedImprovementService
from tests.error_codes import raises_code


class TestQueryRequest:
    def test_fraction_validated(self):
        with pytest.raises(ReproError):
            QueryRequest("SELECT 1 FROM t", "p", required_fraction=1.5)


class TestMakeSolver:
    def test_known_solvers(self, paper_increment_problem):
        problem, _refs = paper_increment_problem
        for name in ("heuristic", "greedy", "dnc"):
            plan = make_solver(name)(problem)
            assert plan.total_cost == pytest.approx(10.0)

    def test_options_forwarded(self, paper_increment_problem):
        problem, _refs = paper_increment_problem
        solver = make_solver("greedy", two_phase=False)
        assert solver(problem).algorithm == "greedy-1phase"

    def test_unknown_solver(self):
        with pytest.raises(ReproError):
            make_solver("oracle")


class TestPipelineStatuses:
    def test_satisfied_without_improvement(self, running_example):
        engine = PCQEngine(running_example.db, running_example.policies)
        result = engine.execute(
            QueryRequest(running_example.QUERY, "analysis", 0.5), user="alice"
        )
        assert result.status is QueryStatus.SATISFIED
        assert result.quote is None
        assert len(result.rows) >= 1

    def test_improvement_path(self, running_example):
        engine = PCQEngine(running_example.db, running_example.policies)
        result = engine.execute(
            QueryRequest(running_example.QUERY, "investment", 1.0), user="bob"
        )
        assert result.status is QueryStatus.IMPROVED
        assert result.receipt is not None
        assert result.receipt.total_cost == pytest.approx(result.quote.cost)
        assert result.released_fraction == 1.0
        # The database now holds the improved confidences.
        improved = [
            tid
            for action in result.receipt.actions
            for tid in [action.tid]
        ]
        for tid in improved:
            assert running_example.db.confidence_of(tid) > 0.1 - 1e-9

    def test_withheld_rows_are_compiled_once_per_ask(
        self, running_example, monkeypatch
    ):
        # Strategy finding builds its problem in the result set's circuit
        # pool: no second pool, no second compile of any withheld row.
        from repro.lineage import CircuitPool

        pools, compiled = [], []
        new_pool, compile_uncached = (
            CircuitPool.__init__,
            CircuitPool._compile_uncached,
        )
        monkeypatch.setattr(
            CircuitPool,
            "__init__",
            lambda self: pools.append(self) or new_pool(self),
        )
        monkeypatch.setattr(
            CircuitPool,
            "_compile_uncached",
            lambda self, node: compiled.append(node)
            or compile_uncached(self, node),
        )
        engine = PCQEngine(running_example.db, running_example.policies)
        result = engine.execute(
            QueryRequest(running_example.QUERY, "investment", 1.0), user="bob"
        )
        assert result.status is QueryStatus.IMPROVED
        assert len(pools) == 1
        assert len(compiled) == len(set(compiled))

    def test_declined_quote(self, running_example):
        engine = PCQEngine(
            running_example.db,
            running_example.policies,
            approval=lambda quote: False,
        )
        result = engine.execute(
            QueryRequest(running_example.QUERY, "investment", 1.0), user="bob"
        )
        assert result.status is QueryStatus.QUOTED
        assert result.quote is not None
        assert result.receipt is None
        # No data was touched.
        assert result.quote.plan.targets
        for tid in result.quote.plan.targets:
            stored = running_example.db.resolve(tid)
            assert stored.confidence < result.quote.plan.targets[tid]

    def test_quote_shortfall_counts_missing_rows(self, running_example):
        engine = PCQEngine(
            running_example.db,
            running_example.policies,
            approval=lambda quote: False,
        )
        result = engine.execute(
            QueryRequest(running_example.QUERY, "investment", 1.0), user="bob"
        )
        assert result.quote.shortfall == result.withheld_count

    def test_budget_hook_as_approval(self, running_example):
        service = SimulatedImprovementService(budget=1_000_000.0)
        engine = PCQEngine(
            running_example.db,
            running_example.policies,
            improvement=service,
            approval=lambda quote: quote.cost <= 1_000_000.0,
        )
        result = engine.execute(
            QueryRequest(running_example.QUERY, "investment", 1.0), user="bob"
        )
        assert result.status is QueryStatus.IMPROVED
        assert service.spent > 0

    def test_unknown_purpose_denied(self, running_example):
        store = running_example.policies
        engine = PCQEngine(running_example.db, store)
        with raises_code(ReproError, "UnknownPurposeError"):
            engine.execute(
                QueryRequest(running_example.QUERY, "espionage"), user="bob"
            )

    def test_solver_choice_affects_algorithm(self, running_example):
        engine = PCQEngine(
            running_example.db, running_example.policies, solver="greedy"
        )
        result = engine.execute(
            QueryRequest(running_example.QUERY, "investment", 1.0), user="bob"
        )
        assert result.quote.plan.algorithm == "greedy"

    def test_infeasible_request(self, running_example):
        # Cap every tuple's achievable confidence low by policy threshold 1.0.
        store = running_example.policies
        store.add_purpose("perfection")
        store.add_policy("Manager", "perfection", 1.0)
        engine = PCQEngine(running_example.db, store)
        result = engine.execute(
            QueryRequest(running_example.QUERY, "perfection", 1.0), user="bob"
        )
        assert result.status is QueryStatus.INFEASIBLE
        assert result.rows == []


class TestResultAccessors:
    def test_rows_are_value_tuples(self, running_example):
        engine = PCQEngine(running_example.db, running_example.policies)
        result = engine.execute(
            QueryRequest(running_example.QUERY, "analysis", 0.0), user="alice"
        )
        for row in result.rows:
            assert isinstance(row, tuple)

    def test_released_fraction_empty_result(self, running_example):
        engine = PCQEngine(running_example.db, running_example.policies)
        result = engine.execute(
            QueryRequest(
                "SELECT Company FROM Proposal WHERE Funding > 99.0",
                "analysis",
                1.0,
            ),
            user="alice",
        )
        assert result.status is QueryStatus.SATISFIED
        assert result.released_fraction == 1.0
