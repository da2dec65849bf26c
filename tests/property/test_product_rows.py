"""A product row solves the same whether it is given as factors, as a
formula, or answered by ``probability()``.

A join row's confidence is the product of its base tuples'.  Strategy
finding takes such a row as its tuples in factor order and multiplies them,
from 1 and left to right — the ``MUL`` its circuit would compute.  Float
multiplication is not associative, so the order is part of the value, and
only a ``Var`` or an ``And`` of pairwise-distinct ``Var``\\ s is a product.

Each generated instance has 1–5-factor rows in an order different from
sorted order, tuples shared across rows, off-grid initials, caps below 1,
mixed cost models and 1–3 requirement groups — plus rows built as an
``And`` with a repeated child, which are not products.  Every solver of
:mod:`tests.golden_plans` must return the same plan, floats compared as
``hex``, on three forms of the instance:

* the product rows as factor tuples;
* the same rows as ``lineage_and`` formulas;
* every row answered by :func:`~repro.lineage.probability` — a pool of its
  own per call — through ``ReferenceFunction``, which overrides ``at``;
  its initial confidences are within 1e-12 of possible-worlds enumeration.

The two mutation tests at the bottom show the check catching an engine that
multiplies in sorted-variable order, and one that treats an ``And`` with a
repeated child as a product.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import BinomialCost, ExponentialCost, LinearCost
from repro.errors import ReproError
from repro.increment import BaseTupleState, IncrementProblem
from repro.increment.problem import SearchState
from repro.lineage import And, ConfidenceFunction, Var, lineage_and, var
from repro.lineage import confidence as confidence_module
from repro.storage import TupleId
from tests.golden_plans import (
    APPROXIMATE,
    EXACT,
    GREEDY_FULL,
    GREEDY_INCREMENTAL,
)
from tests.oracle import close_to_worlds
from tests.unit.test_solver_backend_equivalence import ReferenceFunction

SOLVERS = {**GREEDY_INCREMENTAL, **GREEDY_FULL, **APPROXIMATE, **EXACT}


def _cost_model(rng: random.Random, initial: float):
    below_one = round(rng.uniform(max(initial + 0.05, 0.55), 0.99), 4)
    cap = rng.choice([1.0, below_one])
    kind = rng.randrange(3)
    if kind == 0:
        return LinearCost(rng.uniform(5.0, 80.0), max_confidence=cap)
    if kind == 1:
        return BinomialCost(
            rng.uniform(5.0, 60.0), rng.uniform(10.0, 120.0), max_confidence=cap
        )
    return ExponentialCost(
        rng.uniform(3.0, 20.0), rng.uniform(1.5, 4.0), max_confidence=cap
    )


def _unsorted(rng: random.Random, tids: list[TupleId], k: int) -> tuple:
    """*k* distinct tuples in an order that is not sorted order (k ≥ 2)."""
    factors = rng.sample(tids, k)
    if k > 1 and factors == sorted(factors):
        factors.reverse()
    return tuple(factors)


def instance(seed: int):
    """``(tuples, rows, threshold, delta, groups)``: a row is a factor
    tuple (a product) or an ``And`` with a repeated child (not one)."""
    rng = random.Random(seed)
    tids = [
        TupleId(rng.choice("pqr"), ordinal)
        for ordinal in range(rng.randint(3, 5))
    ]
    tuples = {}
    for tid in tids:
        initial = rng.uniform(0.05, 0.7)
        tuples[tid] = BaseTupleState(tid, initial, _cost_model(rng, initial))
    rows: list = [
        _unsorted(rng, tids, rng.randint(1, min(5, len(tids))))
        for _ in range(rng.randint(2, 7))
    ]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(tids, 2)
        children = [var(a), var(b), var(a)]
        rng.shuffle(children)
        rows.insert(rng.randrange(len(rows) + 1), And(tuple(children)))
    groups = []
    for _ in range(rng.randint(1, 3)):
        members = rng.sample(range(len(rows)), rng.randint(1, len(rows)))
        groups.append((members, rng.randint(1, len(members))))
    threshold = rng.uniform(0.05, 0.45)
    delta = rng.choice([0.1, 0.15, 0.2, 0.25])
    return tuples, rows, threshold, delta, groups


def _formula(row) -> object:
    return row if isinstance(row, And) else lineage_and(*map(var, row))


FORMS = {
    "factors": lambda row, label: ConfidenceFunction(row, label),
    "formulas": lambda row, label: ConfidenceFunction(_formula(row), label),
    "reference": lambda row, label: ReferenceFunction(_formula(row), label),
}


def _hex(value: float) -> str:
    return float(value).hex()


def solve_all(form: str, tuples, rows, threshold, delta, groups) -> dict:
    """Every solver's plan on one form of the instance, plus every row's
    confidence before and after it, floats as ``hex``."""
    results = [FORMS[form](row, f"λ{i}") for i, row in enumerate(rows)]
    problem = IncrementProblem(
        results, tuples, threshold, delta=delta, requirement_groups=groups
    ).clamped_to_achievable()
    records = {"initial": [_hex(c) for c in SearchState(problem).confidences]}
    for name, solve in SOLVERS.items():
        try:
            plan = solve(problem)
        except ReproError as error:
            records[name] = repr(error)
            continue
        state = SearchState(problem)
        for tid, target in plan.targets.items():
            state.commit(problem.slot_of[tid], target)
        records[name] = {
            "targets": {
                str(tid): _hex(value)
                for tid, value in sorted(plan.targets.items())
            },
            "total_cost": _hex(plan.total_cost),
            "satisfied": plan.satisfied_results,
            "gain_evaluations": plan.stats.gain_evaluations,
            "phase2_reductions": plan.stats.phase2_reductions,
            "nodes_explored": plan.stats.nodes_explored,
            "swap_moves": plan.stats.swap_moves,
            "confidences": [_hex(c) for c in state.confidences],
        }
    return records


def check(seed: int) -> None:
    """The three forms of instance *seed* solve identically."""
    spec = instance(seed)
    reference = solve_all("reference", *spec)
    tuples, rows = spec[:2]
    initial = {tid: state.initial for tid, state in tuples.items()}
    for row, confidence in zip(rows, reference["initial"]):
        assert close_to_worlds(float.fromhex(confidence), _formula(row), initial)
    for form in ("factors", "formulas"):
        assert solve_all(form, *spec) == reference, (seed, form)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_factors_formulas_and_the_interpreter_solve_alike(seed):
    check(seed)


def test_the_forms_are_what_they_say():
    a, b, c = TupleId("q", 2), TupleId("p", 9), TupleId("r", 0)
    product = ConfidenceFunction((a, b, c))
    assert product.variables == (b, a, c)
    assert product.factors == (a, b, c)
    assert product.formula == lineage_and(var(a), var(b), var(c))
    assert ConfidenceFunction(product.formula).factors == (a, b, c)
    assert ConfidenceFunction(And((var(a), var(b), var(a)))).factors is None
    p = {a: 0.3, b: 0.7, c: 0.9}
    assert product.evaluate(p) == 1.0 * 0.3 * 0.7 * 0.9
    assert product.at((0.7, 0.3, 0.9)) == 1.0 * 0.3 * 0.7 * 0.9


#: Instances the mutation tests run: a fixed list, so each verdict repeats.
MUTATION_SEEDS = range(10)


def _caught(seeds) -> list[int]:
    caught = []
    for seed in seeds:
        try:
            check(seed)
        # A mismatch, or D&C's partition tripping over a repeated variable.
        except (AssertionError, KeyError):
            caught.append(seed)
    return caught


def test_the_check_passes_on_the_mutation_seeds():
    assert _caught(MUTATION_SEEDS) == []


def test_multiplying_in_sorted_variable_order_is_caught(monkeypatch):
    construct = ConfidenceFunction.__init__

    def sorted_order(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        if self.factors is not None:
            self.factors = self.variables

    monkeypatch.setattr(ConfidenceFunction, "__init__", sorted_order)
    assert _caught(MUTATION_SEEDS)


def test_an_and_with_a_repeated_child_taken_for_a_product_is_caught(
    monkeypatch,
):
    def without_distinctness(formula):
        if type(formula) is Var:
            return (formula.tid,)
        if type(formula) is And and all(
            type(child) is Var for child in formula.children
        ):
            return tuple(child.tid for child in formula.children)
        return None

    monkeypatch.setattr(
        confidence_module, "_product_factors", without_distinctness
    )
    assert _caught(MUTATION_SEEDS)


@pytest.mark.parametrize("factors", [(), (TupleId("p", 1), TupleId("p", 1))])
def test_a_product_needs_pairwise_different_tuples(factors):
    with pytest.raises(ReproError, match="pairwise-different"):
        ConfidenceFunction(factors)
