"""Solver decisions must not depend on how a confidence is computed.

The product path answers every confidence from a product or a circuit in
the problem's shared pool (one forward sweep behind
:class:`~repro.lineage.ConfidenceFunction`'s cache); the arithmetic
reference is :func:`~repro.lineage.probability`, which compiles the formula
into a pool of its own on every call.  The two are bit-identical, so a
solver whose every probe, commit and undo is answered by the reference must
make exactly the same decisions — same targets, cost and satisfied set, not
approximately — and every returned plan must hold up when re-verified by
possible-worlds enumeration, the value reference.
"""

import pytest

from repro.increment import (
    DncOptions,
    GreedyOptions,
    HeuristicOptions,
    IncrementProblem,
    LocalSearchOptions,
    solve_dnc,
    solve_greedy,
    solve_heuristic,
    solve_local_search,
)
from repro.increment.problem import SearchState, SolverStats
from repro.lineage import ConfidenceFunction, probability
from repro.workload import WorkloadSpec, generate_problem
from tests.oracle import possible_worlds


class ReferenceFunction(ConfidenceFunction):
    """A confidence function answered by ``probability()`` — a fresh pool
    per call, no shared pool, no cache, no product — on both of its entry
    points: the mapping form and the positional form the solvers call.  A
    product row keeps its factors, but overriding ``at`` must still route
    every probe here."""

    __slots__ = ()
    #: ``probability()`` calls made through :meth:`at`, over every instance.
    calls = 0

    def evaluate(self, assignment):
        return probability(self.formula, assignment)

    def at(self, key):
        ReferenceFunction.calls += 1
        return probability(self.formula, dict(zip(self.variables, key)))


def _on_reference(problem: IncrementProblem) -> IncrementProblem:
    """The same instance with every confidence computed by ``probability()``."""
    return IncrementProblem(
        [
            ReferenceFunction(result.formula, result.label)
            for result in problem.results
        ],
        problem.tuples,
        problem.threshold,
        problem.required_count,
        problem.delta,
    )


def _workload(data_size: int, seed: int) -> IncrementProblem:
    spec = WorkloadSpec(
        data_size=data_size,
        tuples_per_result=4,
        threshold=0.5,
        theta=0.5,
        delta=0.15,
    )
    return generate_problem(spec, seed=seed).problem


def _assert_identical_and_verified(problem, solve):
    plan = solve(problem)
    reference_plan = solve(_on_reference(problem))
    assert plan.targets == reference_plan.targets
    assert plan.total_cost == reference_plan.total_cost
    assert plan.satisfied_results == reference_plan.satisfied_results
    # Re-verify by possible worlds: the plan reaches the threshold on
    # enough results and costs what it says.
    final = {**problem.initial_assignment(), **plan.targets}
    reached = [
        index
        for index, result in enumerate(problem.results)
        if problem.satisfied(possible_worlds(result.formula, final))
    ]
    assert set(plan.satisfied_results) <= set(reached)
    assert len(reached) >= problem.required_count
    assert plan.total_cost == pytest.approx(problem.cost_of(plan.targets))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_greedy_identical_across_backends(seed):
    problem = _workload(40, seed)
    for options in (
        GreedyOptions(),
        GreedyOptions(two_phase=False, gain_scope="all"),
        GreedyOptions(recompute="full"),
    ):
        _assert_identical_and_verified(
            problem, lambda p: solve_greedy(p, options)
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heuristic_identical_across_backends(seed):
    problem = _workload(8, seed)
    for options in (HeuristicOptions(), HeuristicOptions.naive()):
        _assert_identical_and_verified(
            problem, lambda p: solve_heuristic(p, options)
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dnc_identical_across_backends(seed):
    problem = _workload(60, seed)
    for options in (DncOptions(), DncOptions(allocation="paper")):
        _assert_identical_and_verified(
            problem, lambda p: solve_dnc(p, options)
        )


@pytest.mark.parametrize("seed", [0, 1])
def test_local_search_identical_across_backends(seed):
    problem = _workload(30, seed)
    options = LocalSearchOptions(seed=11, restarts=2, swap_attempts=50)
    _assert_identical_and_verified(
        problem, lambda p: solve_local_search(p, options)
    )


def test_search_state_probe_identical_across_backends():
    problem = _workload(60, 0)
    products = [i for i, r in enumerate(problem.results) if r.factors]
    # A slot that feeds a product row, which the reference must still answer.
    slot = problem.result_slots[products[0]][0]
    indexes = list(problem.results_by_slot[slot])
    on_reference = _on_reference(problem)
    assert [r.factors for r in on_reference.results] == [
        r.factors for r in problem.results
    ]
    state = SearchState(problem)
    calls = ReferenceFunction.calls
    reference = SearchState(on_reference)
    assert ReferenceFunction.calls - calls == len(problem.results)
    assert state.confidences == reference.confidences
    target = problem.steps[slot][state.values[slot]][0]
    calls = ReferenceFunction.calls
    stats, reference_stats = SolverStats(), SolverStats()
    assert state.gain(slot, True, stats) == reference.gain(
        slot, True, reference_stats
    )
    assert stats.gain_evaluations == reference_stats.gain_evaluations == 1
    assert ReferenceFunction.calls - calls == len(indexes)
    # Probes never commit on either.
    assert state.confidences == reference.confidences
    state.set_value(slot, target)
    calls = ReferenceFunction.calls
    reference.set_value(slot, target)
    assert ReferenceFunction.calls - calls == len(indexes)
    assert state.confidences == reference.confidences
    assert state.cost == reference.cost


class TestUnlimitedBudgetEquivalence:
    """An unexpired budget must not perturb the search.

    Budget checks piggyback on the historical branch-and-bound cadence
    (one counter increment per node), so passing an unlimited
    :class:`Budget` has to reproduce the unbudgeted solver bit for bit —
    same targets, same cost, same satisfied set, same node counts.
    """

    def _assert_same_search(self, unbudgeted, budgeted):
        assert budgeted.targets == unbudgeted.targets
        assert budgeted.total_cost == unbudgeted.total_cost
        assert budgeted.satisfied_results == unbudgeted.satisfied_results
        assert budgeted.algorithm == unbudgeted.algorithm
        assert (
            budgeted.stats.nodes_explored == unbudgeted.stats.nodes_explored
        )
        assert not budgeted.stats.budget_exhausted

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy(self, seed):
        from repro.increment import Budget

        problem = _workload(40, seed)
        for options in (GreedyOptions(), GreedyOptions(recompute="full")):
            self._assert_same_search(
                solve_greedy(problem, options),
                solve_greedy(problem, options, Budget()),
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_heuristic(self, seed):
        from repro.increment import Budget

        problem = _workload(8, seed)
        self._assert_same_search(
            solve_heuristic(problem, HeuristicOptions()),
            solve_heuristic(problem, HeuristicOptions(), Budget()),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dnc(self, seed):
        from repro.increment import Budget

        problem = _workload(60, seed)
        self._assert_same_search(
            solve_dnc(problem, DncOptions()),
            solve_dnc(problem, DncOptions(), Budget()),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_local_search(self, seed):
        from repro.increment import Budget

        problem = _workload(30, seed)
        options = LocalSearchOptions(seed=11, restarts=2, swap_attempts=50)
        self._assert_same_search(
            solve_local_search(problem, options),
            solve_local_search(problem, options, Budget()),
        )


def test_private_pools_solve_like_a_shared_pool():
    """Results compiled into separate pools need no re-compilation: each
    function sweeps its own circuit and the plan is the shared-pool one."""
    base = _workload(10, 1)
    results = [
        ConfidenceFunction(result.formula, result.label)  # private pools
        for result in base.results
    ]
    assert len({id(result.circuit.pool) for result in results}) == len(results)
    problem = IncrementProblem(
        results, base.tuples, base.threshold, base.required_count, base.delta
    )
    plan = solve_greedy(problem)
    reference = solve_greedy(base)
    assert plan.targets == reference.targets
    assert plan.total_cost == reference.total_cost
