"""Unit tests for the increment problem formalization and search state."""

import pytest

from repro.cost import LinearCost
from repro.errors import IncrementError, InfeasibleIncrementError
from repro.increment import (
    BaseTupleState,
    IncrementProblem,
    SearchState,
    ceil_required,
    solve_greedy,
)
from repro.lineage import (
    CircuitPool,
    ConfidenceFunction,
    lineage_and,
    lineage_not,
    lineage_or,
    var,
)
from repro.storage import TupleId

A, B, C = (TupleId("t", i) for i in range(3))


def make_states(**confidences):
    mapping = {"A": A, "B": B, "C": C}
    return {
        mapping[name]: BaseTupleState(mapping[name], value, LinearCost(100.0))
        for name, value in confidences.items()
    }


class TestBaseTupleState:
    def test_cost_to(self):
        state = BaseTupleState(A, 0.3, LinearCost(100.0))
        assert state.cost_to(0.5) == pytest.approx(20.0)
        assert state.cost_to(0.3) == 0.0
        assert state.cost_to(0.2) == 0.0  # below current is free (no-op)

    def test_levels_include_max(self):
        state = BaseTupleState(A, 0.25, LinearCost(1.0, max_confidence=0.9))
        levels = state.levels(0.2)
        assert levels[0] == 0.25
        assert levels[-1] == pytest.approx(0.9)
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_levels_exact_grid(self):
        state = BaseTupleState(A, 0.5, LinearCost(1.0))
        assert state.levels(0.25) == pytest.approx([0.5, 0.75, 1.0])

    def test_levels_invalid_delta(self):
        state = BaseTupleState(A, 0.5, LinearCost(1.0))
        with pytest.raises(IncrementError):
            state.levels(0.0)

    def test_maximum_never_below_initial(self):
        state = BaseTupleState(A, 0.95, LinearCost(1.0, max_confidence=0.9))
        assert state.maximum == 0.95


class TestProblemConstruction:
    def test_negated_lineage_rejected(self):
        results = [ConfidenceFunction(lineage_not(var(A)))]
        with pytest.raises(IncrementError):
            IncrementProblem(results, make_states(A=0.5), 0.6, 1)

    def test_missing_tuple_state_rejected(self):
        results = [ConfidenceFunction(lineage_and(var(A), var(B)))]
        with pytest.raises(IncrementError):
            IncrementProblem(results, make_states(A=0.5), 0.6, 1)

    def test_required_above_result_count_rejected(self):
        results = [ConfidenceFunction(var(A))]
        with pytest.raises(InfeasibleIncrementError):
            IncrementProblem(results, make_states(A=0.5), 0.6, 2)

    def test_invalid_threshold_and_delta(self):
        results = [ConfidenceFunction(var(A))]
        states = make_states(A=0.5)
        with pytest.raises(IncrementError):
            IncrementProblem(results, states, 1.5, 1)
        with pytest.raises(IncrementError):
            IncrementProblem(results, states, 0.6, 1, delta=0.0)

    def test_results_by_tuple_index(self):
        results = [
            ConfidenceFunction(var(A)),
            ConfidenceFunction(lineage_or(var(A), var(B))),
        ]
        problem = IncrementProblem(results, make_states(A=0.1, B=0.1), 0.6, 1)
        # Slots number the kept tuples in sorted order; TupleId stays at
        # the boundary (tids / slot_of translate).
        assert problem.tids == (A, B)
        assert problem.slot_of == {A: 0, B: 1}
        assert problem.result_slots == [(0,), (0, 1)]
        assert problem.results_by_slot == [[0, 1], [1]]

    def test_only_needed_tuples_kept(self):
        results = [ConfidenceFunction(var(A))]
        problem = IncrementProblem(results, make_states(A=0.1, B=0.1), 0.6, 1)
        assert set(problem.tuples) == {A}


class TestProblemQueries:
    def test_trivial_detection(self):
        results = [ConfidenceFunction(var(A))]
        problem = IncrementProblem(results, make_states(A=0.7), 0.6, 1)
        assert problem.is_trivial()

    def test_feasibility_check(self):
        states = {
            A: BaseTupleState(A, 0.1, LinearCost(1.0, max_confidence=0.5))
        }
        results = [ConfidenceFunction(var(A))]
        problem = IncrementProblem(results, states, 0.6, 1)
        with pytest.raises(InfeasibleIncrementError):
            problem.check_feasible()

    def test_cost_of_assignment(self):
        results = [ConfidenceFunction(lineage_and(var(A), var(B)))]
        problem = IncrementProblem(results, make_states(A=0.2, B=0.3), 0.6, 1)
        assignment = {A: 0.4, B: 0.3}
        assert problem.cost_of(assignment) == pytest.approx(20.0)

    def test_satisfied_count(self):
        results = [
            ConfidenceFunction(var(A)),
            ConfidenceFunction(var(B)),
        ]
        problem = IncrementProblem(results, make_states(A=0.7, B=0.1), 0.6, 1)
        assert problem.satisfied_count(problem.initial_assignment()) == 1
        assert problem.satisfied_count(problem.maximal_assignment()) == 2

    def test_subproblem(self):
        results = [
            ConfidenceFunction(var(A)),
            ConfidenceFunction(var(B)),
        ]
        problem = IncrementProblem(results, make_states(A=0.1, B=0.1), 0.6, 2)
        sub = problem.subproblem([1], 1)
        assert len(sub.results) == 1
        assert set(sub.tuples) == {B}

    def test_from_results_reads_database(self, paper_increment_problem):
        problem, refs = paper_increment_problem
        assert problem.tuples[refs["t02"]].initial == 0.3
        assert problem.tuples[refs["t03"]].initial == 0.4
        assert problem.threshold == 0.06

    def test_from_results_compiles_into_a_given_pool_once(
        self, paper_increment_problem
    ):
        base, refs = paper_increment_problem
        lineage = base.results[0].formula
        pool = CircuitPool()
        compiled = pool.compile(lineage)  # what a result set did already
        nodes, hits = len(pool), pool.formula_hits
        problem = IncrementProblem.from_results(
            [lineage], refs["db"], 0.06, 1, pool=pool
        )
        # A memo hit: no new node, and the very same circuit handle.
        assert len(pool) == nodes and pool.formula_hits == hits + 1
        assert problem.results[0].circuit is compiled
        # Without the keyword (and positionally, as before): a fresh pool.
        fresh = IncrementProblem.from_results([lineage], refs["db"], 0.06, 1)
        assert fresh.results[0].circuit.pool is not pool
        assert solve_greedy(problem).total_cost == solve_greedy(fresh).total_cost

    def test_feasibility_is_evaluated_once(self, monkeypatch):
        results = [
            ConfidenceFunction(var(A)),
            ConfidenceFunction(lineage_and(var(A), var(B))),
        ]
        states = {
            A: BaseTupleState(A, 0.1, LinearCost(1.0)),
            B: BaseTupleState(B, 0.1, LinearCost(1.0, max_confidence=0.5)),
        }
        problem = IncrementProblem(
            results, states, 0.6, requirement_groups=[([0], 1), ([1], 1)]
        )
        sweeps = []  # evaluations of every result at the maximal assignment
        flags = IncrementProblem._flags

        def counted(self, values):
            if values is self.maximum:
                sweeps.append(self)
            return flags(self, values)

        monkeypatch.setattr(IncrementProblem, "_flags", counted)
        assert problem.achievable() == [1, 0]
        with pytest.raises(InfeasibleIncrementError, match="group 1"):
            problem.check_feasible()
        clamped = problem.clamped_to_achievable()
        assert [count for _m, count in clamped.requirement_groups] == [1, 0]
        with pytest.raises(InfeasibleIncrementError):
            solve_greedy(problem)  # the solver's own check reads the flags
        assert sweeps == [problem]

    def test_lattice_tables_follow_the_values_actually_reached(self):
        # 0.1 + 0.1 + 0.1 is 0.30000000000000004, not the grid's 0.3: a
        # δ-step is tabulated by the value it starts from, a walk-back
        # lands on the rounded grid, and both are priced by cost_to.
        state = BaseTupleState(A, 0.1, LinearCost(10.0, max_confidence=0.95))
        problem = IncrementProblem(
            [ConfidenceFunction(var(A))], {A: state}, 0.9, 1
        )
        value, climbed = 0.1, []
        while (step := problem.steps[0][value]) is not None:
            target, cost = step
            assert target == min(value + 0.1, 0.95)
            assert cost == state.cost_to(target) - state.cost_to(value)
            assert problem.steps[0][value] is step  # tabulated
            value = target
            climbed.append(value)
        assert value == 0.95 and 0.30000000000000004 in climbed
        assert problem.levels_of(0) == state.levels(0.1)
        assert problem.levels_of(0) is problem.levels_of(0)
        assert problem.previous_level(0, 0.95) == 0.9
        assert problem.previous_level(0, 0.30000000000000004) == 0.2
        assert problem.previous_level(0, 0.1) == 0.1  # floor: the initial
        assert problem.prices[0][0.95] == state.cost_to(0.95)

    def test_slots_with_the_same_range_share_one_grid(self):
        states = {
            A: BaseTupleState(A, 0.1, LinearCost(10.0, max_confidence=0.95)),
            B: BaseTupleState(B, 0.1, LinearCost(99.0, max_confidence=0.95)),
            C: BaseTupleState(C, 0.2, LinearCost(10.0, max_confidence=0.95)),
        }
        problem = IncrementProblem(
            [ConfidenceFunction(lineage_and(var(A), var(B), var(C)))],
            states,
            0.9,
            1,
        )
        a, b, c = (problem.slot_of[tid] for tid in (A, B, C))
        assert problem.levels_of(a) is problem.levels_of(b)
        assert problem.levels_of(c) == states[C].levels(0.1)
        assert problem.levels_of(c)[0] == 0.2

    def test_ceil_required(self):
        assert ceil_required(100, 0.5, 0.0) == 50
        assert ceil_required(100, 0.5, 0.2) == 30
        assert ceil_required(3, 0.5, 0.0) == 2
        assert ceil_required(10, 0.3, 0.5) == 0


class TestSearchState:
    @pytest.fixture
    def problem(self):
        results = [
            ConfidenceFunction(lineage_or(var(A), var(B)), "r0"),
            ConfidenceFunction(lineage_and(var(B), var(C)), "r1"),
        ]
        return IncrementProblem(
            results, make_states(A=0.1, B=0.2, C=0.3), 0.5, 1
        )

    def test_initial_state(self, problem):
        state = SearchState(problem)
        assert state.values == [0.1, 0.2, 0.3] == problem.initial
        assert state.cost == 0.0
        assert state.satisfied_count == 0
        assert not state.is_satisfied()

    def test_set_value_updates_affected_results(self, problem):
        state = SearchState(problem)
        state.set_value(problem.slot_of[A], 0.6)
        assert state.confidences[0] == pytest.approx(0.6 + 0.2 - 0.12)
        assert state.confidences[1] == pytest.approx(0.2 * 0.3)  # untouched
        assert state.satisfied_count == 1
        assert state.cost == pytest.approx(50.0)

    def test_undo_restores_everything(self, problem):
        state = SearchState(problem)
        before = (list(state.confidences), state.cost, state.satisfied_count)
        slot = problem.slot_of[B]
        old = state.values[slot]
        undo = state.set_value(slot, 0.9)
        state.undo(slot, old, undo)
        assert (list(state.confidences), state.cost, state.satisfied_count) == before

    def test_noop_set(self, problem):
        state = SearchState(problem)
        assert state.set_value(problem.slot_of[A], 0.1) == []
        assert state.cost == 0.0

    def test_snapshot_targets_only_changed(self, problem):
        state = SearchState(problem)
        state.set_value(problem.slot_of[A], 0.5)
        assert state.changed_slots() == [problem.slot_of[A]]
        assert state.snapshot_targets() == {A: 0.5}

    def test_satisfied_indexes(self, problem):
        state = SearchState(problem)
        state.set_value(problem.slot_of[B], 1.0)
        state.set_value(problem.slot_of[C], 0.6)
        assert 1 in state.satisfied_indexes()
