"""Unit tests for the solver runtime: budgets, anytime exhaustion, fallback.

The contract under test (docs/ROBUSTNESS.md):

* an unexpired budget never changes solver behaviour;
* exhaustion with a feasible incumbent returns the incumbent
  (``stats.budget_exhausted``), without one raises
  :class:`TimeBudgetExceeded` carrying :class:`PartialProgress`;
* the degradation chain falls through hops on timeout and re-raises the
  last hop's error when every hop times out.
"""

import pytest

from repro.core import make_solver
from repro.errors import IncrementError, TimeBudgetExceeded
from repro.increment import (
    Budget,
    DegradationChain,
    GreedyOptions,
    HeuristicOptions,
    SolverAttempt,
    solve_dnc,
    solve_greedy,
    solve_heuristic,
    solve_local_search,
)
from repro.increment.problem import SearchState
from repro.increment.runtime import CHECK_INTERVAL, budget_exceeded
from repro.obs import MetricsRegistry, get_tracer, set_metrics
from repro.workload import WorkloadSpec, generate_problem


class FakeClock:
    """Controllable wall clock that counts how often it is read."""

    def __init__(self) -> None:
        self.now = 0.0
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.now


@pytest.fixture
def problem():
    spec = WorkloadSpec(data_size=20, tuples_per_result=4)
    return generate_problem(spec, seed=0).problem


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _greedy_attempt() -> SolverAttempt:
    """Greedy as a chain hop, under the (problem, budget=None) contract."""
    return SolverAttempt("greedy", make_solver("greedy"))


class TestBudget:
    def test_unlimited_budget_never_exhausts(self):
        budget = Budget()
        for _ in range(3 * CHECK_INTERVAL):
            assert budget.charge()
            assert budget.charge_probe()
        assert budget.check()
        assert not budget.exhausted
        assert budget.remaining_seconds() is None

    def test_node_limit_is_exact_and_sticky(self):
        budget = Budget(node_limit=3)
        assert budget.charge()
        assert budget.charge()
        assert budget.charge()
        assert not budget.charge()
        assert budget.exhausted
        # Sticky: nothing un-exhausts a budget.
        assert not budget.charge()
        assert not budget.check()

    def test_probe_limit_counts_probes_not_nodes(self):
        budget = Budget(probe_limit=2)
        for _ in range(10):
            assert budget.charge()
        assert budget.charge_probe()
        assert budget.charge_probe()
        assert not budget.charge_probe()

    def test_deadline_read_only_every_check_interval(self):
        clock = FakeClock()
        budget = Budget(deadline_seconds=1.0, clock=clock)
        reads_after_init = clock.reads
        clock.now = 2.0  # already past the deadline
        for _ in range(CHECK_INTERVAL - 1):
            assert budget.charge()
        assert clock.reads == reads_after_init  # no mid-interval reads
        assert not budget.charge()  # the CHECK_INTERVAL-th charge looks
        assert clock.reads == reads_after_init + 1
        assert budget.exhausted

    def test_check_forces_an_immediate_clock_read(self):
        clock = FakeClock()
        budget = Budget(deadline_seconds=1.0, clock=clock)
        assert budget.check()
        clock.now = 5.0
        assert not budget.check()
        assert budget.exhausted

    def test_parent_chaining_propagates_both_ways(self):
        parent = Budget(node_limit=5)
        child = Budget(parent=parent)
        for _ in range(5):
            assert child.charge()
        assert not child.charge()
        assert parent.exhausted and child.exhausted
        assert parent.nodes == 6  # every child charge reached the parent

    def test_parent_deadline_seen_by_child_check(self):
        clock = FakeClock()
        parent = Budget(deadline_seconds=1.0, clock=clock)
        child = Budget(parent=parent)
        assert child.check()
        clock.now = 3.0
        assert not child.check()

    def test_from_deadline_ms_and_remaining(self):
        clock = FakeClock()
        budget = Budget.from_deadline_ms(500.0, clock=clock)
        assert budget.deadline_ms == pytest.approx(500.0)
        assert budget.remaining_seconds() == pytest.approx(0.5)
        clock.now = 0.2
        assert budget.remaining_seconds() == pytest.approx(0.3)
        clock.now = 9.0
        assert budget.remaining_seconds() == 0.0

    def test_negative_deadline_rejected(self):
        for deadline in (-1.0, 0.0, float("nan"), True):
            with pytest.raises(IncrementError):
                Budget(deadline_seconds=deadline)


class TestBudgetExceededHelper:
    def test_partial_progress_snapshots_the_state(self, problem):
        state = SearchState(problem)
        error = budget_exceeded("greedy", problem, state)
        assert isinstance(error, TimeBudgetExceeded)
        assert isinstance(error, IncrementError)  # callers catch one type
        assert error.algorithm == "greedy"
        assert error.partial.required_results == problem.required_count
        assert error.partial.cost == state.cost
        assert error.partial.targets == state.snapshot_targets()
        assert str(error.partial.satisfied_results) in str(error)

    def test_no_state_means_empty_progress(self, problem):
        error = budget_exceeded("heuristic", problem, None, message="boom")
        assert error.partial.cost == 0.0
        assert error.partial.targets == {}
        assert str(error) == "boom"


class TestSolverExhaustion:
    """An instantly-exhausted budget raises before any feasible plan."""

    @pytest.mark.parametrize(
        "solve",
        [solve_greedy, solve_dnc, solve_local_search],
        ids=["greedy", "dnc", "local-search"],
    )
    def test_polynomial_solvers_raise_with_partial(self, solve, problem):
        with pytest.raises(TimeBudgetExceeded) as excinfo:
            solve(problem, None, Budget(node_limit=0))
        partial = excinfo.value.partial
        assert partial is not None
        assert partial.required_results == problem.required_count
        assert partial.satisfied_results < partial.required_results

    def test_heuristic_raises_without_incumbent(self, problem):
        with pytest.raises(TimeBudgetExceeded) as excinfo:
            solve_heuristic(problem, HeuristicOptions(), Budget(node_limit=0))
        assert excinfo.value.partial.required_results == problem.required_count

    def test_heuristic_returns_anytime_incumbent(self):
        """Enough nodes to find an incumbent, not enough to finish: the
        plan comes back feasible and monotonically improves with budget."""
        spec = WorkloadSpec(data_size=11, tuples_per_result=4)
        problem = generate_problem(spec, seed=3).problem  # ~450k-node search

        small_budget = Budget(node_limit=20_000)
        small = solve_heuristic(problem, HeuristicOptions.naive(), small_budget)
        assert small_budget.exhausted
        assert small.stats.budget_exhausted
        assert not small.stats.completed
        assert len(small.satisfied_results) >= problem.required_count

        large = solve_heuristic(
            problem, HeuristicOptions.naive(), Budget(node_limit=200_000)
        )
        assert large.stats.budget_exhausted
        assert len(large.satisfied_results) >= problem.required_count
        assert large.total_cost <= small.total_cost + 1e-9

    def test_unexpired_budget_does_not_change_the_plan(self, problem):
        reference = solve_greedy(problem, GreedyOptions())
        budgeted = solve_greedy(problem, GreedyOptions(), Budget())
        assert budgeted.targets == reference.targets
        assert budgeted.total_cost == reference.total_cost
        assert not budgeted.stats.budget_exhausted
        assert budgeted.stats.completed


class TestDegradationChain:
    def _timeout_solver(self, name="late"):
        def solve(problem, budget=None):
            raise budget_exceeded(name, problem, None)

        return SolverAttempt(name, solve)

    def test_needs_at_least_one_attempt(self):
        with pytest.raises(IncrementError):
            DegradationChain([])

    def test_rejects_non_positive_deadline(self):
        for deadline_ms in (0, float("nan"), float("inf")):
            with pytest.raises(IncrementError):
                DegradationChain([self._timeout_solver()], deadline_ms=deadline_ms)

    def test_single_attempt_returns_its_plan(self, problem, fresh_metrics):
        chain = DegradationChain([_greedy_attempt()])
        plan = chain.solve(problem)
        assert plan.targets == solve_greedy(problem).targets
        assert fresh_metrics.snapshot().get("pcqe.fallback_hops") is None

    def test_timeout_falls_through_to_next_hop(self, problem, fresh_metrics):
        chain = DegradationChain(
            [self._timeout_solver(), _greedy_attempt()]
        )
        plan = chain.solve(problem)
        assert plan.algorithm.startswith("greedy")
        snapshot = fresh_metrics.snapshot()
        assert snapshot["pcqe.fallback_hops"] == 1
        assert snapshot["pcqe.fallback_successes"] == 1

    def test_all_hops_exhausted_reraises_last_error(self, problem):
        chain = DegradationChain(
            [self._timeout_solver("first"), self._timeout_solver("second")]
        )
        with pytest.raises(TimeBudgetExceeded) as excinfo:
            chain.solve(problem)
        assert excinfo.value.algorithm == "second"

    def test_non_timeout_errors_propagate_immediately(self, problem):
        def broken(problem, budget=None):
            raise ValueError("not a timeout")

        chain = DegradationChain(
            [SolverAttempt("broken", broken), _greedy_attempt()]
        )
        with pytest.raises(ValueError):
            chain.solve(problem)

    def test_attempt_spans_record_the_fallback(self, problem, fresh_metrics):
        chain = DegradationChain(
            [self._timeout_solver(), _greedy_attempt()],
            deadline_ms=10_000.0,
        )
        with get_tracer().capture() as sink:
            chain.solve(problem)
        attempts = sink.find("pcqe.solver_attempt")
        assert [span.attributes["hop"] for span in attempts] == [0, 1]
        assert attempts[0].attributes["timed_out"] is True
        assert attempts[0].attributes["fallback_to"] == "greedy"
        assert attempts[1].attributes["budget.exhausted"] is False
        assert attempts[1].attributes["cost"] == pytest.approx(
            solve_greedy(problem).total_cost
        )

    def test_worker_thread_spans_nest_under_the_attempt(self, problem):
        """An attempt runs on the caller's thread inside its attempt span,
        so spans the solver opens nest under it."""

        def traced(problem, budget=None):
            with get_tracer().span("custom.inner"):
                return solve_greedy(problem, None, budget)

        chain = DegradationChain([SolverAttempt("traced", traced)])
        with get_tracer().capture() as sink:
            chain.solve(problem)
        (attempt,) = sink.find("pcqe.solver_attempt")
        (inner,) = sink.find("custom.inner")
        assert inner.parent_id == attempt.span_id

    def test_a_deadline_solve_starts_no_thread(self, problem, no_new_threads):
        """Budgets are cooperative: the chain runs every hop — also a
        budgeted one that falls back — on the calling thread."""
        import threading

        caller = threading.get_ident()
        ran_on = []

        def tracked(problem, budget=None):
            ran_on.append(threading.get_ident())
            return solve_greedy(problem, None, budget)

        chain = DegradationChain(
            [self._timeout_solver(), SolverAttempt("tracked", tracked)],
            deadline_ms=60_000.0,
        )
        plan = chain.solve(problem, deadline_ms=30_000.0)
        assert plan.degraded
        assert ran_on == [caller]

    def test_each_hop_gets_a_fresh_budget(self, problem):
        """The fallback must not inherit the exhausted budget."""
        seen = []

        def recorder(problem, budget=None):
            seen.append(budget)
            if len(seen) == 1:
                raise budget_exceeded("first", problem, None)
            return solve_greedy(problem, None, None)

        chain = DegradationChain(
            [SolverAttempt("a", recorder), SolverAttempt("b", recorder)],
            deadline_ms=60_000.0,
        )
        chain.solve(problem)
        first, second = seen
        assert first is not second
        assert not second.exhausted
