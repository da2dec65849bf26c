"""Integration tests: deadlines degrade gracefully instead of hanging.

The acceptance scenario for the deadline-aware runtime: a hostile
branch-and-bound instance under a 50 ms deadline must still produce a
feasible plan — via the greedy fallback — with spans recording the
exhausted budget and the fallback hop.
"""

import pytest

from repro import PCQEngine, QueryRequest, QueryStatus, make_solver
from repro.errors import ReproError, TimeBudgetExceeded
from repro.increment import DegradationChain, SolverAttempt
from repro.increment.runtime import budget_exceeded
from repro.obs import MetricsRegistry, get_tracer, set_metrics
from repro.workload import WorkloadSpec, generate_problem


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _hostile_problem():
    """A workload whose un-pruned branch-and-bound search runs for far
    longer than any interactive deadline."""
    spec = WorkloadSpec(data_size=60, tuples_per_result=5)
    return generate_problem(spec, seed=7).problem


class TestHostileInstanceUnderDeadline:
    def test_naive_bnb_times_out_and_greedy_rescues(self, fresh_metrics):
        problem = _hostile_problem()
        chain = DegradationChain(
            [
                SolverAttempt(
                    "heuristic",
                    make_solver(
                        "heuristic",
                        use_h1=False,
                        use_h2=False,
                        use_h3=False,
                        use_h4=False,
                    ),
                ),
                SolverAttempt("greedy", make_solver("greedy")),
            ]
        )
        with get_tracer().capture() as sink:
            with get_tracer().span("pcqe.strategy_finding") as span:
                plan = chain.solve(problem, deadline_ms=50.0, span=span)

        # A feasible plan came back despite the hostile primary.
        assert plan.algorithm.startswith("greedy")
        assert len(plan.satisfied_results) >= problem.required_count

        attempts = sink.find("pcqe.solver_attempt")
        assert attempts[0].attributes["solver"] == "heuristic"
        assert attempts[0].attributes["budget.exhausted"] is True
        assert attempts[0].attributes["timed_out"] is True
        assert attempts[0].attributes["fallback_to"] == "greedy"
        assert attempts[1].attributes["solver"] == "greedy"

        (strategy,) = sink.find("pcqe.strategy_finding")
        assert strategy.attributes["solver"] == "greedy"
        assert strategy.attributes["fallback_hops"] == 1
        assert strategy.attributes["budget.deadline_ms"] == 50.0
        assert [event.name for event in strategy.events] == ["pcqe.fallback"]

        snapshot = fresh_metrics.snapshot()
        assert snapshot["pcqe.fallback_hops"] == 1
        assert snapshot["pcqe.fallback_successes"] == 1
        assert snapshot["solver.heuristic.budget_exhausted"] == 1

    def test_without_deadline_the_chain_waits_for_the_primary(self):
        """No deadline means no fallback: the primary gets to finish (a
        pruned, easy configuration here, so it does)."""
        spec = WorkloadSpec(data_size=8, tuples_per_result=4)
        problem = generate_problem(spec, seed=0).problem
        chain = DegradationChain(
            [
                SolverAttempt("heuristic", make_solver("heuristic")),
                SolverAttempt("greedy", make_solver("greedy")),
            ]
        )
        plan = chain.solve(problem)
        assert plan.algorithm == "heuristic"


class TestEngineDeadlines:
    """Request-level deadlines thread through the whole pipeline."""

    def _stalling_solver(self):
        def stall(problem, budget=None):
            if budget is None:
                raise ReproError("stall solver needs a budget to expire")
            while budget.charge():
                pass  # a hostile search making no progress
            raise budget_exceeded("stall", problem, None)

        stall.__name__ = "stall"
        return stall

    def test_deadline_request_falls_back_and_improves(
        self, running_example, fresh_metrics
    ):
        engine = PCQEngine(
            running_example.db,
            running_example.policies,
            solver=self._stalling_solver(),
            fallback=("greedy",),
        )
        with get_tracer().capture() as sink:
            result = engine.execute(
                QueryRequest(
                    running_example.QUERY,
                    "investment",
                    1.0,
                    deadline_ms=50.0,
                ),
                user="bob",
            )
        assert result.status is QueryStatus.IMPROVED
        assert result.released_fraction == 1.0

        attempts = sink.find("pcqe.solver_attempt")
        assert attempts[0].attributes["solver"] == "stall"
        assert attempts[0].attributes["timed_out"] is True
        assert attempts[1].attributes["solver"] == "greedy"
        (strategy,) = sink.find("pcqe.strategy_finding")
        assert strategy.attributes["fallback_hops"] == 1
        assert strategy.attributes["budget.deadline_ms"] == 50.0

    def test_no_deadline_keeps_the_legacy_span_tree(self, running_example):
        """Without a deadline and without fallback the chain is one direct
        call on the caller's thread: the legacy span tree, plus the one
        hop-0 ``pcqe.solver_attempt`` span every solve now carries."""
        engine = PCQEngine(
            running_example.db, running_example.policies, solver="heuristic"
        )
        with get_tracer().capture() as sink:
            result = engine.execute(
                QueryRequest(running_example.QUERY, "investment", 1.0),
                user="bob",
            )
        assert result.status is QueryStatus.IMPROVED
        (attempt,) = sink.find("pcqe.solver_attempt")
        assert attempt.attributes["hop"] == 0
        assert "budget.deadline_ms" not in attempt.attributes
        (strategy,) = sink.find("pcqe.strategy_finding")
        (solver,) = sink.find("solver.heuristic")
        assert attempt.parent_id == strategy.span_id
        assert solver.parent_id == attempt.span_id
        assert strategy.attributes["fallback_hops"] == 0

    def test_every_hop_timing_out_surfaces_the_structured_error(
        self, running_example
    ):
        engine = PCQEngine(
            running_example.db,
            running_example.policies,
            solver=self._stalling_solver(),
        )
        with pytest.raises(TimeBudgetExceeded) as excinfo:
            engine.execute(
                QueryRequest(
                    running_example.QUERY,
                    "investment",
                    1.0,
                    deadline_ms=30.0,
                ),
                user="bob",
            )
        assert excinfo.value.partial is not None

    def test_request_deadline_validation(self):
        with pytest.raises(ReproError):
            QueryRequest("SELECT 1 FROM t", "p", deadline_ms=0.0)
        with pytest.raises(ReproError):
            QueryRequest("SELECT 1 FROM t", "p", deadline_ms=-5.0)
