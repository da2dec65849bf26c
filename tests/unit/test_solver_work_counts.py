"""A deterministic guard on what the greedy loop pays per gain evaluation.

Timings drift; counts repeat exactly.  Inside the increment layer a base
tuple is a dense slot and each tuple's costs are tabulated per lattice
point, so a solve hashes ``TupleId``s only at its boundary (the plan's
targets coming out) and prices each reached ``(tuple, value)`` once —
however many gains it evaluates on the way.
At the commit before the slot port the first row below read 255 306
hashes and 13 833 ``increment_cost`` calls for 8 838 gain evaluations.
"""

import math

import pytest

from repro.cost import CostModel
from repro.increment import GreedyOptions, solve_greedy
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
        for table, initial in zip(problem._costs, problem.initial)
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
