"""A deterministic guard on what the greedy loop pays per gain evaluation.

Timings drift; counts repeat exactly.  Inside the increment layer a base
tuple is a dense slot and each tuple's costs are tabulated per lattice
point, so a solve hashes ``TupleId``s only at its boundary (the plan's
targets coming out) and prices each reached ``(tuple, value)`` once —
however many gains it evaluates on the way.
At the commit before the slot port the first row below read 255 306
hashes and 13 833 ``increment_cost`` calls for 8 838 gain evaluations.
"""

import inspect
import math

import pytest

from repro.cost import CostModel
from repro.increment import (
    GreedyOptions,
    IncrementProblem,
    SearchState,
    solve_greedy,
)
from repro.lineage import CompiledCircuit, ConfidenceFunction
from repro.storage import TupleId
from tests.golden_plans import improve_ask_slice, scalability_problem


@pytest.mark.parametrize(
    "size, options, min_evaluations_per_priced_point",
    [
        (1500, GreedyOptions(), 3),  # 300 results, 8 838 gain evaluations
        (1500, GreedyOptions(gain_scope="all", two_phase=False), 3),
        (300, GreedyOptions(recompute="full"), 50),  # the paper's O(k·l₁) loop
    ],
)
def test_boundary_work_does_not_grow_with_gain_evaluations(
    count_calls, size, options, min_evaluations_per_priced_point
):
    problem = scalability_problem(size)
    tuples = len(problem.tuples)
    hashes = count_calls(TupleId, "__hash__")
    priced = count_calls(CostModel, "increment_cost")

    plan = solve_greedy(problem, options)

    # Each reached (slot, value) above the initial one is priced exactly
    # once (at or below it the cost is 0 by definition, no model call) ...
    reached = sum(
        value > initial + 1e-9
        for table, initial in zip(problem.prices, problem.initial)
        for value in table
    )
    assert priced[0] == reached
    assert reached <= tuples * (math.ceil(1.0 / problem.delta) + 1)
    # ... the loop itself hashes no TupleId (what is left is the plan's
    # targets, keyed by TupleId at the boundary) ...
    assert hashes[0] <= tuples
    # ... and neither count follows the number of gains evaluated.
    evaluations = plan.stats.gain_evaluations
    assert evaluations >= min_evaluations_per_priced_point * priced[0]

    # Solving again on the same problem prices nothing new.
    priced[0] = 0
    again = solve_greedy(problem, options)
    assert again.stats.gain_evaluations == evaluations
    assert again.total_cost == plan.total_cost
    assert priced[0] == 0


def test_a_product_row_is_multiplied_not_swept(count_calls):
    """A join row's confidence is the product of its base tuples' (the
    ``improve-ask-2.5k`` slice): a greedy solve over such rows sweeps no
    circuit and looks nothing up in a confidence function's memo."""
    problem = improve_ask_slice()
    assert all(result.factors is not None for result in problem.results)
    sweeps = count_calls(CompiledCircuit, "sweep")
    lookups = count_calls(ConfidenceFunction, "at")

    plan = solve_greedy(problem)

    assert plan.stats.gain_evaluations > 1_000
    assert sweeps[0] == lookups[0] == 0


def test_a_gain_evaluation_is_one_state_call(count_calls):
    """What one greedy solve of the ``improve-ask-2.5k`` slice calls into
    the increment layer.  A gain evaluation is one ``SearchState.gain``
    call; a phase-1 pick is committed with no undo token; a phase-2
    walk-back is judged before it is applied; a step or a price is made
    once per reached point and read as a plain dict hit after.  Before
    this shape the same solve — same 4 654 evaluations, same plan — made
    4 654 ``probe``, 6 020 ``result_needed``, 8 002 ``step_up``,
    11 264 ``cost_at`` and 541 ``set_value`` calls and undid 247 of its
    walk-backs."""
    problem = improve_ask_slice()
    calls = {
        f"{owner.__name__}.{name}": count_calls(owner, name)
        for owner in (SearchState, IncrementProblem)
        for name, member in list(vars(owner).items())
        if inspect.isfunction(member)
    }
    priced = count_calls(CostModel, "increment_cost")
    steps_made = count_calls(type(problem.steps[0]), "__missing__")

    plan = solve_greedy(problem)

    made = {name: counter[0] for name, counter in calls.items() if counter[0]}
    evaluations = plan.stats.gain_evaluations
    assert evaluations == 4_654
    # One call per refreshed slot; the 1 080 at their maximum answer -inf
    # without an evaluation.
    assert made.pop("SearchState.gain") == 5_734
    assert made.pop("SearchState.commit") == 2_268
    assert made.pop("SearchState.walk_back") == 541
    # Once per pick, once per walk-back and once before phase 1.
    assert made.pop("SearchState.is_satisfied") == 2_269 + 541 + 1
    assert "SearchState.set_value" not in made
    assert "SearchState.undo" not in made
    # Nothing else is called anywhere near once per evaluation (the most
    # is ``satisfied``, once per result when the state and the
    # achievable counts are built).
    assert max(made.values()) * 4 < evaluations, made
    reached = sum(
        value > initial + 1e-9
        for table, initial in zip(problem.prices, problem.initial)
        for value in table
    )
    assert priced[0] == reached == 2_885
    assert steps_made[0] == sum(map(len, problem.steps)) == 2_772
