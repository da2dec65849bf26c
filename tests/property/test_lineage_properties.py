"""Property-based tests for lineage formulas and probability computation.

Strategy: generate random monotone-or-negated formulas over a small variable
pool, then check algebraic invariants against brute-force world enumeration.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lineage import (
    CircuitPool,
    lineage_and,
    lineage_not,
    lineage_or,
    probability,
    restrict,
    var,
)
from repro.storage import TupleId

from tests.oracle import close_to_worlds, possible_worlds

POOL = [TupleId("t", i) for i in range(5)]


def formulas(max_depth=4, allow_not=True):
    """Random formula trees over POOL."""
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
def test_probability_matches_brute_force(formula, probs):
    assert abs(probability(formula, probs) - possible_worlds(formula, probs)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(formulas(), probability_maps())
def test_compiled_matches_interpreter(formula, probs):
    """A pool that compiled the negation first shares every subcircuit:
    the same bits as a pool of its own, and the possible-worlds value."""
    pool = CircuitPool()
    pool.compile(lineage_not(formula))
    compiled = pool.compile(formula)
    assert compiled.evaluate(probs) == probability(formula, probs)
    assert close_to_worlds(compiled.evaluate(probs), formula, probs)


@settings(max_examples=100, deadline=None)
@given(formulas(), probability_maps())
def test_probability_in_unit_interval(formula, probs):
    value = probability(formula, probs)
    assert 0.0 <= value <= 1.0


@settings(max_examples=100, deadline=None)
@given(formulas(), probability_maps())
def test_negation_complements(formula, probs):
    direct = probability(formula, probs)
    complement = probability(lineage_not(formula), probs)
    assert abs(direct + complement - 1.0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(formulas(), probability_maps(), st.sampled_from(POOL))
def test_shannon_identity(formula, probs, tid):
    """P(f) = p·P(f|v=1) + (1−p)·P(f|v=0) for every variable."""
    p = probs[tid]
    high = probability(restrict(formula, tid, True), probs)
    low = probability(restrict(formula, tid, False), probs)
    assert abs(probability(formula, probs) - (p * high + (1 - p) * low)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    formulas(allow_not=False),
    probability_maps(),
    st.sampled_from(POOL),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_monotone_formulas_increase_with_probability(formula, probs, tid, bump):
    base = probability(formula, probs)
    raised = dict(probs)
    raised[tid] = max(raised[tid], bump)
    assert probability(formula, raised) >= base - 1e-9


@settings(max_examples=100, deadline=None)
@given(formulas(), formulas(), probability_maps())
def test_de_morgan(left, right, probs):
    lhs = probability(lineage_not(lineage_and(left, right)), probs)
    rhs = probability(
        lineage_or(lineage_not(left), lineage_not(right)), probs
    )
    assert abs(lhs - rhs) < 1e-9


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_smart_constructor_idempotence(formula):
    assert lineage_and(formula, formula) == formula
    assert lineage_or(formula, formula) == formula
    assert lineage_not(lineage_not(formula)) == formula


@settings(max_examples=100, deadline=None)
@given(formulas(), st.sampled_from(POOL), st.booleans())
def test_restrict_removes_variable(formula, tid, value):
    restricted = restrict(formula, tid, value)
    assert tid not in restricted.variables
