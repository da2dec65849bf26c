"""Unit tests for exact probability and circuit compilation."""

import random
import re

import pytest

from repro.errors import ReproError
from repro.lineage import (
    BOTTOM,
    TOP,
    And,
    CircuitPool,
    ConfidenceFunction,
    Or,
    lineage_and,
    lineage_not,
    lineage_or,
    probability,
    var,
)
from repro.storage import TupleId

from tests.oracle import close_to_worlds, possible_worlds
from tests.error_codes import raises_code

A, B, C, D = (TupleId("t", i) for i in range(4))


class TestExactProbability:
    def test_constants(self):
        assert probability(TOP, {}) == 1.0
        assert probability(BOTTOM, {}) == 0.0

    def test_single_var(self):
        assert probability(var(A), {A: 0.3}) == 0.3

    def test_negation(self):
        assert probability(lineage_not(var(A)), {A: 0.3}) == pytest.approx(0.7)

    def test_independent_and(self):
        formula = lineage_and(var(A), var(B))
        assert probability(formula, {A: 0.5, B: 0.4}) == pytest.approx(0.2)

    def test_independent_or(self):
        formula = lineage_or(var(A), var(B))
        assert probability(formula, {A: 0.3, B: 0.4}) == pytest.approx(
            0.3 + 0.4 - 0.12
        )

    def test_paper_running_example(self):
        formula = lineage_and(lineage_or(var(A), var(B)), var(C))
        probs = {A: 0.3, B: 0.4, C: 0.1}
        assert probability(formula, probs) == pytest.approx(0.058)

    def test_shared_variable_needs_shannon(self):
        # (A AND B) OR (A AND C) = A AND (B OR C)
        formula = lineage_or(
            lineage_and(var(A), var(B)), lineage_and(var(A), var(C))
        )
        probs = {A: 0.3, B: 0.4, C: 0.1}
        expected = 0.3 * (1 - 0.6 * 0.9)
        assert probability(formula, probs) == pytest.approx(expected)

    def test_matches_brute_force_on_entangled_formula(self):
        formula = lineage_or(
            lineage_and(var(A), var(B), var(C)),
            lineage_and(var(B), var(D)),
            lineage_and(lineage_not(var(A)), var(D)),
        )
        probs = {A: 0.2, B: 0.7, C: 0.5, D: 0.4}
        assert probability(formula, probs) == pytest.approx(
            possible_worlds(formula, probs)
        )

    def test_missing_probability_raises(self):
        with raises_code(ReproError, "LineageError"):
            probability(var(A), {})

    def test_out_of_range_probability_raises(self):
        with raises_code(ReproError, "LineageError"):
            probability(var(A), {A: 1.5})

    def test_reads_exactly_the_variables_its_circuit_reads(self):
        # x ∨ (x ∧ y) is x: Shannon on x leaves ⊤ and ⊥, so y is never read.
        formula = Or((var(A), And((var(A), var(B)))))
        assert probability(formula, {A: 0.3}) == 0.3
        assert probability(formula, {A: 0.3, B: 1.5}) == 0.3
        with raises_code(ReproError, "LineageError", match=r"outside \[0, 1\]"):
            probability(formula, {A: 1.5, B: 0.5})
        for missing in (A, B):
            present = {tid: 0.5 for tid in (A, B) if tid != missing}
            with raises_code(
                ReproError,
                "LineageError",
                match=re.escape(
                    f"no probability supplied for base tuple {missing}"
                ),
            ):
                probability(lineage_and(var(A), var(B)), present)

    def test_result_clamped(self):
        # Many ORs of high probabilities must not exceed 1.0.
        formula = lineage_or(var(A), var(B), var(C), var(D))
        probs = {tid: 0.999 for tid in (A, B, C, D)}
        assert probability(formula, probs) <= 1.0


class TestCompiledProbability:
    """A circuit in a shared pool against ``probability()`` — one in a pool
    of its own — bit for bit, and against possible-worlds enumeration."""

    def test_matches_interpreter(self):
        formula = lineage_or(
            lineage_and(var(A), var(B)),
            lineage_and(var(A), var(C)),
            var(D),
        )
        pool = CircuitPool()
        pool.compile(lineage_and(var(A), var(B)))
        compiled = pool.compile(formula)
        rng = random.Random(5)
        for _ in range(25):
            probs = {tid: rng.random() for tid in (A, B, C, D)}
            assert compiled.evaluate(probs) == probability(formula, probs)
            assert close_to_worlds(compiled.evaluate(probs), formula, probs)

    def test_constants_compiled(self):
        assert CircuitPool().compile(TOP).evaluate({}) == 1.0
        assert CircuitPool().compile(BOTTOM).evaluate({}) == 0.0

    def test_missing_variable_raises(self):
        # Every way of asking for a confidence names the missing tuple in
        # a ReproError with code LineageError.
        formula = lineage_and(var(A), var(B))
        for evaluate in (
            lambda probs: probability(formula, probs),
            CircuitPool().compile(formula).evaluate,
            ConfidenceFunction(formula).evaluate,
        ):
            with raises_code(
                ReproError, "LineageError", match="no probability supplied"
            ):
                evaluate({A: 0.5})


class TestConfidenceFunction:
    def test_evaluate_and_cache(self):
        formula = lineage_and(var(A), var(B))
        function = ConfidenceFunction(formula, "f")
        probs = {A: 0.5, B: 0.4, C: 0.9}  # extra variable ignored
        assert function.evaluate(probs) == pytest.approx(0.2)
        assert function.evaluate(probs) == pytest.approx(0.2)  # cached path

    def test_variables_sorted(self):
        formula = lineage_or(var(C), var(A))
        assert ConfidenceFunction(formula).variables == (A, C)

    # Differences, ceilings and slopes are evaluate() at two points.

    def test_delta(self):
        # §3.1: raising p03 from 0.4 to 0.5 lifts p38 from 0.058 to 0.065.
        formula = lineage_and(lineage_or(var(A), var(B)), var(C))
        function = ConfidenceFunction(formula)
        probs = {A: 0.3, B: 0.4, C: 0.1}
        raised = function.evaluate({**probs, B: 0.5})
        assert raised - function.evaluate(probs) == pytest.approx(0.065 - 0.058)

    def test_delta_for_unrelated_tuple_is_zero(self):
        function = ConfidenceFunction(var(A))
        assert function.evaluate({A: 0.5, B: 0.9}) == function.evaluate(
            {A: 0.5, B: 0.1}
        )

    def test_max_value(self):
        # F_max of Heuristics 1/3: every variable at its ceiling.
        function = ConfidenceFunction(lineage_and(var(A), var(B)))
        assert function.evaluate({A: 1.0, B: 1.0}) == pytest.approx(1.0)
        assert function.evaluate({A: 0.8, B: 0.5}) == pytest.approx(0.4)

    def test_derivative(self):
        # Multilinear: the slope in A is F(A=1) − F(A=0) = p(B).
        function = ConfidenceFunction(lineage_and(var(A), var(B)))
        slope = function.evaluate({A: 1.0, B: 0.7}) - function.evaluate(
            {A: 0.0, B: 0.7}
        )
        assert slope == pytest.approx(0.7)
