"""Differential properties of the arithmetic-circuit engine.

Two references.  The value reference is possible-worlds enumeration
(:func:`tests.oracle.possible_worlds`, which shares no code with the
engine): every confidence below is within 1e-12 of it.  The arithmetic
reference is :func:`repro.lineage.probability` — the formula compiled
into a pool of its own and swept once — and every other way of asking
(a shared pool, a positional sweep, the cached facade, a search state)
must be *bit-identical* to it on arbitrary SPJU lineage, including
formulas that share subcircuits through one pool and formulas whose
entangled clusters force Shannon expansion.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import LinearCost
from repro.increment.problem import (
    BaseTupleState,
    IncrementProblem,
    SearchState,
    SolverStats,
)
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

POOL = [TupleId("t", i) for i in range(5)]


def formulas(max_depth=4, allow_not=True):
    """Random formula trees over POOL (same shape as the lineage suite).

    Repeated variables across branches routinely produce entangled
    clusters, so the Shannon-expansion compile path is exercised heavily.
    """
    leaves = st.sampled_from(POOL).map(var)

    def extend(children):
        options = [
            st.lists(children, min_size=2, max_size=3).map(
                lambda parts: lineage_and(*parts)
            ),
            st.lists(children, min_size=2, max_size=3).map(
                lambda parts: lineage_or(*parts)
            ),
        ]
        if allow_not:
            options.append(children.map(lineage_not))
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=8)


def probability_maps():
    return st.fixed_dictionaries(
        {tid: st.floats(min_value=0.0, max_value=1.0) for tid in POOL}
    )


@settings(max_examples=150, deadline=None)
@given(formulas(), probability_maps())
def test_circuit_matches_probability_bitwise(formula, probs):
    """Also with any one input at 0.0 or 1.0: two such sweeps are the
    exact partial ``∂F/∂p(t)``, since ``P(F)`` is multilinear."""
    pool = CircuitPool()
    pool.compile(lineage_not(formula))  # every subcircuit is shared
    circuit = pool.compile(formula)
    for inputs in [probs] + [
        {**probs, tid: pinned} for tid in POOL for pinned in (0.0, 1.0)
    ]:
        value = circuit.evaluate(inputs)
        assert value == probability(formula, inputs)
        assert close_to_worlds(value, formula, inputs)


def sweep_formulas():
    """:func:`formulas` plus the degenerate shapes a sweep must also get
    right: a lone variable, the constants, constants inside connectives
    (folded by the smart constructors, or not, when built raw), and
    absorption — ``x OR (x AND y)`` — whose circuit drops ``y`` from its
    support while the formula still lists it."""
    x, y = var(POOL[0]), var(POOL[1])
    return st.one_of(
        formulas(),
        st.sampled_from(POOL).map(var),
        st.sampled_from([TOP, BOTTOM, Or((x, And((x, y)))), And((x, TOP))]),
        formulas().map(lambda f: Or((f, BOTTOM, And((x, lineage_not(f)))))),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(sweep_formulas(), min_size=1, max_size=4),
    probability_maps(),
    st.booleans(),
)
def test_positional_sweep_matches_probability_bitwise(group, probs, shared):
    """``sweep`` takes one probability per entry of the circuit's sorted
    support — no mapping — and equals the reference bit for bit, whether
    the formulas share a pool (and each other's value slots) or each has
    its own, and the reference is the possible-worlds value.  The facade's
    positional ``at`` — keyed on the *formula's* variables — agrees on the
    miss and on the hit."""
    pool = CircuitPool() if shared else None
    circuits = [(pool or CircuitPool()).compile(formula) for formula in group]
    functions = [ConfidenceFunction(formula, pool=pool) for formula in group]
    for _ in range(2):  # second round: interleaved sweeps left no residue
        for formula, circuit, function in zip(group, circuits, functions):
            expected = probability(formula, probs)
            assert close_to_worlds(expected, formula, probs)
            assert circuit.support == tuple(sorted(circuit.support))
            assert set(circuit.support) <= formula.variables
            inputs = [probs[tid] for tid in circuit.support]
            assert circuit.sweep(inputs) == expected
            assert circuit.sweep(tuple(inputs)) == expected
            key = tuple(probs[tid] for tid in function.variables)
            assert function.at(key) == expected  # miss, then hit
            assert function.at(key) == expected
    wrong_length = [0.5] * (len(circuits[0].support) + 1)
    with pytest.raises(ValueError):
        circuits[0].sweep(wrong_length)


@settings(max_examples=100, deadline=None)
@given(formulas(), probability_maps())
def test_circuit_matches_compiled_closure_bitwise(formula, probs):
    """The cached facade — what callers hold — agrees with the reference on
    a miss and on the hit that follows."""
    function = ConfidenceFunction(formula)
    expected = probability(formula, probs)
    assert close_to_worlds(expected, formula, probs)
    assert function.evaluate(probs) == expected
    assert function.evaluate(probs) == expected


@settings(max_examples=100, deadline=None)
@given(formulas(), formulas(), probability_maps())
def test_sharing_one_pool_does_not_change_values(left, right, probs):
    """Interning across formulas never alters either formula's value."""
    pool = CircuitPool()
    first = pool.compile(left)
    second = pool.compile(right)
    assert first.evaluate(probs) == probability(left, probs)
    assert second.evaluate(probs) == probability(right, probs)
    assert close_to_worlds(first.evaluate(probs), left, probs)
    assert close_to_worlds(second.evaluate(probs), right, probs)
    # Compiling in one pool combining both (forcing shared subcircuits
    # through the conjunction) leaves the standalone values intact too.
    combined = pool.compile(lineage_and(left, right))
    assert first.evaluate(probs) == probability(left, probs)
    del combined


@settings(max_examples=75, deadline=None)
@given(formulas(allow_not=False), probability_maps())
def test_gradient_matches_sensitivity(formula, probs):
    """``P(F)`` is multilinear, so two forward sweeps give each partial
    exactly; possible-worlds enumeration gets it from the same two pins."""
    circuit = CircuitPool().compile(formula)
    for tid in formula.variables:
        slope = circuit.evaluate({**probs, tid: 1.0}) - circuit.evaluate(
            {**probs, tid: 0.0}
        )
        expected = possible_worlds(
            formula, {**probs, tid: 1.0}
        ) - possible_worlds(formula, {**probs, tid: 0.0})
        assert abs(slope - expected) < 1e-9


@settings(max_examples=75, deadline=None)
@given(
    formulas(),
    probability_maps(),
    st.lists(
        st.tuples(
            st.sampled_from(POOL), st.floats(min_value=0.0, max_value=1.0)
        ),
        max_size=6,
    ),
)
def test_incremental_updates_match_fresh_evaluation(formula, probs, updates):
    """Across a chain of updates the cached facade never serves a stale
    value: it always equals evaluating from scratch."""
    function = ConfidenceFunction(formula)
    current = dict(probs)
    assert function.evaluate(current) == probability(formula, current)
    for tid, value in updates:
        current[tid] = value
        assert function.evaluate(current) == probability(formula, current)
    assert close_to_worlds(function.evaluate(current), formula, current)


@settings(max_examples=50, deadline=None)
@given(
    formulas(allow_not=False),
    probability_maps(),
    st.sampled_from(POOL),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_probe_equals_patched_evaluation_without_commit(
    formula, probs, tid, value
):
    problem = IncrementProblem(
        [ConfidenceFunction(formula)],
        {t: BaseTupleState(t, probs[t], LinearCost(1.0)) for t in POOL},
        threshold=0.5,
        required_count=1,
    )
    state = SearchState(problem)
    if tid not in problem.tuples:  # the formula never reads it
        return
    # A gain probe of the δ-step from *value*: ΔF over the step's cost.
    slot = problem.slot_of[tid]
    state.commit(slot, value)
    before = (list(state.confidences), list(state.values), state.cost)
    step = problem.steps[slot][state.values[slot]]
    stats = SolverStats()
    gain = state.gain(slot, True, stats)
    assert (state.confidences, state.values, state.cost) == before
    if step is None:
        assert gain == -math.inf and stats.gain_evaluations == 0
        return
    target, step_cost = step
    patched = probability(formula, {**probs, tid: target})
    assert close_to_worlds(patched, formula, {**probs, tid: target})
    delta = patched - before[0][0]
    if delta <= 1e-9:
        expected = 0.0
    elif step_cost <= 1e-9:
        expected = math.inf
    else:
        expected = delta / step_cost
    assert gain == expected
    assert stats.gain_evaluations == 1
