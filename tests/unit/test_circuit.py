"""Unit tests for the arithmetic-circuit confidence engine."""

import random

import pytest

from repro.errors import ReproError
from repro.cost import LinearCost
from repro.increment.problem import (
    BaseTupleState,
    IncrementProblem,
    SearchState,
    SolverStats,
)
from repro.lineage import (
    CircuitPool,
    ConfidenceFunction,
    lineage_and,
    lineage_not,
    lineage_or,
    probability,
    var,
)
from repro.lineage.confidence import CACHE_SIZE
from repro.storage import TupleId
from tests.error_codes import raises_code
from tests.oracle import close_to_worlds, possible_worlds

T = [TupleId("t", i) for i in range(8)]


def _assignment(seed=0, tids=T):
    rng = random.Random(seed)
    return {tid: rng.uniform(0.05, 0.95) for tid in tids}


def _shannon_formula():
    """One entangled cluster: (t0 ∧ t1) ∨ (t1 ∧ t2) forces Shannon."""
    return lineage_or(
        lineage_and(var(T[0]), var(T[1])), lineage_and(var(T[1]), var(T[2]))
    )


class TestCompilation:
    def test_evaluate_matches_probability_bitwise(self):
        """A shared pool sweeps what a pool of its own does, bit for bit,
        and possible-worlds enumeration agrees — also with any one input
        at 0.0 or 1.0: two such sweeps are the exact partial
        ``∂F/∂p(t)``, since ``P(F)`` is multilinear."""
        formulas = [
            var(T[0]),
            lineage_and(var(T[0]), var(T[1])),
            lineage_or(var(T[0]), var(T[1]), var(T[2])),
            lineage_not(lineage_and(var(T[0]), var(T[1]))),
            lineage_not(lineage_or(var(T[0]), var(T[1]))),
            _shannon_formula(),
            lineage_and(_shannon_formula(), var(T[3])),
            lineage_and(_shannon_formula(), lineage_or(var(T[3]), var(T[4]))),
        ]
        pool = CircuitPool()
        assignment = _assignment()
        for formula in formulas:
            circuit = pool.compile(formula)
            for inputs in [assignment] + [
                {**assignment, tid: pinned}
                for tid in formula.variables
                for pinned in (0.0, 1.0)
            ]:
                value = circuit.evaluate(inputs)
                assert value == probability(formula, inputs)
                assert close_to_worlds(value, formula, inputs)

    def test_evaluate_matches_compiled_closure_bitwise(self):
        # Compiled once, swept under many assignments.
        formula = lineage_or(
            lineage_and(var(T[0]), var(T[1]), var(T[2])),
            lineage_and(var(T[2]), var(T[3])),
            var(T[4]),
        )
        circuit = CircuitPool().compile(formula)
        for seed in range(20):
            assignment = _assignment(seed)
            value = circuit.evaluate(assignment)
            assert value == probability(formula, assignment)
            assert close_to_worlds(value, formula, assignment)

    def test_shared_subformula_interned_once(self):
        shared = lineage_and(var(T[0]), var(T[1]))
        pool = CircuitPool()
        first = pool.compile(lineage_or(shared, var(T[2])))
        nodes_after_first = len(pool)
        second = pool.compile(lineage_or(shared, var(T[3])))
        # The shared conjunct adds no new nodes the second time.
        assert pool.formula_hits > 0
        assert len(pool) < nodes_after_first + len(second)
        assert pool.shared_hit_rate > 0.0
        assert first.root != second.root

    def test_identical_formula_reuses_root(self):
        pool = CircuitPool()
        formula = lineage_or(var(T[0]), lineage_and(var(T[1]), var(T[2])))
        assert pool.compile(formula).root == pool.compile(formula).root

    def test_support_and_len(self):
        circuit = CircuitPool().compile(_shannon_formula())
        assert circuit.support == tuple(sorted([T[0], T[1], T[2]]))
        assert len(circuit) >= 3

    def test_missing_variable_raises(self):
        circuit = CircuitPool().compile(lineage_and(var(T[0]), var(T[1])))
        with raises_code(ReproError, "LineageError", match="no probability supplied"):
            circuit.evaluate({T[0]: 0.5})

    def test_stats_keys(self):
        pool = CircuitPool()
        pool.compile(_shannon_formula())
        stats = pool.stats()
        assert set(stats) == {
            "nodes",
            "variables",
            "intern_hits",
            "formula_hits",
            "shared_hit_rate",
        }
        assert stats["variables"] == 3


def _slope(evaluate, assignment, tid):
    """``∂F/∂p(tid)`` from two forward sweeps: ``P(F)`` is multilinear, so
    the partial is exactly ``F(tid := 1) − F(tid := 0)``."""
    return evaluate({**assignment, tid: 1.0}) - evaluate({**assignment, tid: 0.0})


class TestGradient:
    """The circuit's slopes against possible-worlds enumeration's, each
    taken as two evaluations with one input pinned at 1.0 and 0.0."""

    @pytest.mark.parametrize(
        "formula",
        [
            var(T[0]),
            lineage_and(var(T[0]), var(T[1])),
            lineage_or(var(T[0]), var(T[1]), var(T[2])),
            lineage_not(lineage_or(var(T[0]), var(T[1]))),
            _shannon_formula(),
            lineage_and(_shannon_formula(), lineage_or(var(T[3]), var(T[4]))),
        ],
    )
    def test_gradient_matches_sensitivity(self, formula):
        circuit = CircuitPool().compile(formula)
        assignment = _assignment(3)
        for tid in formula.variables:
            expected = _slope(
                lambda inputs: possible_worlds(formula, inputs), assignment, tid
            )
            assert _slope(circuit.evaluate, assignment, tid) == pytest.approx(
                expected, abs=1e-12
            )

    def test_gradient_zero_partial_still_reported(self):
        # t1's partial is 0 when t0 = 1 in t0 ∨ t1.
        formula = lineage_or(var(T[0]), var(T[1]))
        circuit = CircuitPool().compile(formula)
        assert _slope(circuit.evaluate, {T[0]: 1.0, T[1]: 0.3}, T[1]) == 0.0


class TestEvaluator:
    """:class:`SearchState` — the one mutable evaluator left — over a shared
    pool, against ``probability()`` from scratch: a pool per formula, bit
    for bit, itself checked against possible-worlds enumeration."""

    def _setup(self, seed=1):
        pool = CircuitPool()
        formulas = [
            lineage_or(lineage_and(var(T[0]), var(T[1])), var(T[2])),
            lineage_and(var(T[1]), lineage_or(var(T[2]), var(T[3]))),
            _shannon_formula(),
        ]
        assignment = _assignment(seed, T[:4])
        problem = IncrementProblem(
            [ConfidenceFunction(formula, pool=pool) for formula in formulas],
            {
                tid: BaseTupleState(tid, value, LinearCost(10.0))
                for tid, value in assignment.items()
            },
            threshold=0.5,
            required_count=2,
        )
        return pool, formulas, problem, assignment, SearchState(problem)

    def _fresh(self, formulas, assignment):
        fresh = [probability(formula, assignment) for formula in formulas]
        for formula, value in zip(formulas, fresh):
            assert close_to_worlds(value, formula, assignment)
        return fresh

    def test_initial_values_match_probability(self):
        _pool, formulas, _problem, assignment, state = self._setup()
        assert state.confidences == self._fresh(formulas, assignment)

    def _values(self, problem, assignment):
        """*assignment* laid out positionally, the way the state holds it."""
        return [assignment[tid] for tid in problem.tids]

    def test_incremental_update_matches_fresh_evaluation(self):
        _pool, formulas, problem, assignment, state = self._setup()
        rng = random.Random(9)
        for _ in range(50):
            tid = rng.choice(T[:4])
            value = rng.uniform(0.0, 1.0)
            assignment[tid] = value
            state.commit(problem.slot_of[tid], value)
            assert state.confidences == self._fresh(formulas, assignment)

    def test_probe_does_not_commit(self):
        # A gain probe patches the slot, sums ΔF and patches it back.
        _pool, formulas, problem, assignment, state = self._setup()
        before = (list(state.confidences), state.cost)
        slot = problem.slot_of[T[1]]
        assert problem.results_by_slot[slot] == [0, 1, 2]
        target, step_cost = problem.steps[slot][assignment[T[1]]]
        fresh = self._fresh(formulas, {**assignment, T[1]: target})
        delta = 0.0
        for index in (0, 1, 2):
            delta += fresh[index] - before[0][index]
        stats = SolverStats()
        assert state.gain(slot, True, stats) == delta / step_cost
        assert stats.gain_evaluations == 1
        assert (state.confidences, state.cost) == before
        assert state.values == self._values(problem, assignment)

    def test_out_of_scope_variable_is_noop(self):
        _pool, formulas, problem, assignment, state = self._setup()
        # T[3] is outside results 0 and 2: moving it leaves them untouched
        # (their cache keys do not even change) and touches only result 1.
        slot = problem.slot_of[T[3]]
        assert problem.results_by_slot[slot] == [1]
        before = list(state.confidences)
        undo = state.set_value(slot, 0.9)
        assert [index for index, _old in undo] == [1]
        assert state.confidences[0] == before[0]
        assert state.confidences[2] == before[2]
        assert state.confidences == self._fresh(
            formulas, {**assignment, T[3]: 0.9}
        )

    def test_recorded_set_restores_bitwise(self):
        _pool, _formulas, problem, assignment, state = self._setup()
        before = (
            list(state.confidences),
            list(state.satisfied_flags),
            list(state.group_counts),
            state.cost,
        )
        slot = problem.slot_of[T[1]]
        old = state.values[slot]
        undo = state.set_value(slot, 0.97)
        assert undo and state.confidences != before[0]
        state.undo(slot, old, undo)
        assert (
            state.confidences,
            state.satisfied_flags,
            state.group_counts,
            state.cost,
        ) == before
        assert state.values == self._values(problem, assignment)
        # A move within tolerance of the current value is a recorded no-op.
        assert state.set_value(slot, old) == []

    def test_gradient_uses_committed_values(self):
        # Slopes taken by what-if moves are slopes at the *committed*
        # assignment.
        _pool, formulas, problem, assignment, state = self._setup()
        state.commit(problem.slot_of[T[2]], 0.77)
        assignment[T[2]] = 0.77

        def what_if(slot, value):
            old = state.values[slot]
            undo = state.set_value(slot, value)
            confidence = state.confidences[0]
            state.undo(slot, old, undo)
            return confidence

        for tid in formulas[0].variables:
            high = what_if(problem.slot_of[tid], 1.0)
            low = what_if(problem.slot_of[tid], 0.0)
            assert high - low == pytest.approx(
                possible_worlds(formulas[0], {**assignment, tid: 1.0})
                - possible_worlds(formulas[0], {**assignment, tid: 0.0}),
                abs=1e-12,
            )

    def test_foreign_pool_rejected(self):
        pool, _formulas, problem, assignment, _state = self._setup()
        foreign = CircuitPool().compile(var(T[0]))
        circuits = [result.circuit for result in problem.results]
        with raises_code(ReproError, "LineageError", match="share the pool"):
            pool.evaluate_many(circuits + [foreign], assignment)


class TestConfidenceFunctionFacade:
    def test_backends_agree_bitwise(self):
        # The cached facade over a circuit and a pool of its own, bit for
        # bit; possible-worlds enumeration agrees.
        formula = lineage_and(_shannon_formula(), var(T[3]))
        function = ConfidenceFunction(formula)
        for seed in range(10):
            assignment = _assignment(seed)
            expected = probability(formula, assignment)
            assert close_to_worlds(expected, formula, assignment)
            assert function.evaluate(assignment) == expected  # miss
            assert function.evaluate(assignment) == expected  # hit

    def test_unknown_backend_rejected(self):
        # There is one way to compute a confidence; nothing to select.
        for backend in ("treewalk", "circuit", "quantum"):
            with pytest.raises(TypeError):
                ConfidenceFunction(var(T[0]), backend=backend)

    def test_shared_pool_across_functions(self):
        pool = CircuitPool()
        shared = lineage_and(var(T[0]), var(T[1]))
        a = ConfidenceFunction(lineage_or(shared, var(T[2])), pool=pool)
        b = ConfidenceFunction(lineage_or(shared, var(T[3])), pool=pool)
        assert a.circuit.pool is pool and b.circuit.pool is pool
        assert pool.formula_hits > 0

    def test_cache_is_bounded_lru(self):
        formula = lineage_or(var(T[0]), var(T[1]))
        fn = ConfidenceFunction(formula)
        for step in range(10 * CACHE_SIZE):
            value = (step % 7919) / 7919
            fn.evaluate({T[0]: value, T[1]: 1.0 - value})
        # Both generations together never exceed the bound.
        assert len(fn._cache) + len(fn._cache_old) <= CACHE_SIZE
        # The most recent entry is retained; evaluating it again hits.
        hit_key = tuple(
            {T[0]: 0.25, T[1]: 0.75}[tid] for tid in fn.variables
        )
        fn.evaluate({T[0]: 0.25, T[1]: 0.75})
        assert hit_key in fn._cache


class TestCliCircuitCommand:
    def test_circuit_command_reports_sharing(self):
        from repro.cli import CommandShell

        shell = CommandShell()
        shell.execute_line("demo")
        output = shell.execute_line(
            "circuit SELECT Company FROM Proposal WHERE Funding < 1.0"
        )
        assert "circuit nodes (shared pool):" in output
        assert "shared-node hit rate:" in output

    def test_circuit_command_requires_select(self):
        from repro.cli import CommandShell
        from repro.errors import ReproError

        shell = CommandShell()
        with pytest.raises(ReproError):
            shell.execute_line("circuit")
