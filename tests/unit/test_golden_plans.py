"""Every solver's plan, bit for bit, against the recorded fixture.

The fixture was recorded at the commit before the increment layer moved
onto dense tuple slots (see :mod:`tests.golden_plans`); equality here is
``==`` on every float.
"""

import json

import pytest

from repro import PCQEngine, QueryRequest, QueryStatus
from repro.algebra.rows import AnnotatedTuple
from tests.golden_plans import (
    CASES,
    GOLDEN_PATH,
    IMPROVE_ASK_SQL,
    improve_ask_scenario,
    plan_record,
    solve_case,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case_and_solver():
    assert {name: sorted(records) for name, records in GOLDEN.items()} == {
        name: sorted(solvers) for name, (_build, solvers) in CASES.items()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_plans_are_bit_identical_to_the_fixture(case):
    for solver_name, record in solve_case(case):
        assert record == GOLDEN[case][solver_name], (case, solver_name)


@pytest.mark.parametrize(
    "solver, record",
    [("greedy", "greedy-incremental-unsatisfied-two"), ("dnc", "dnc")],
)
def test_the_pipeline_quotes_the_improve_ask_slice_plans(
    count_calls, solver, record
):
    """The ``improve-ask-slice`` instance as the pipeline builds it — from
    the withheld rows' factors, with no row or formula built — quotes the
    plan recorded for the same rows given as formulas."""
    scenario = improve_ask_scenario()
    engine = PCQEngine(
        scenario.db,
        scenario.policies,
        solver=solver,
        approval=lambda _quote: False,
    )
    rows = count_calls(AnnotatedTuple, "__init__")
    result = engine.execute(
        QueryRequest(IMPROVE_ASK_SQL, "treatment-evaluation", 0.5), "omar"
    )
    assert result.status is QueryStatus.QUOTED and rows[0] == 0
    golden = GOLDEN["improve-ask-slice"][record]
    assert plan_record(result.quote.plan) == golden
