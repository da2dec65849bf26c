"""Every solver's plan, bit for bit, against the recorded fixture.

The fixture was recorded at the commit before the increment layer moved
onto dense tuple slots (see :mod:`tests.golden_plans`); equality here is
``==`` on every float.
"""

import json

import pytest

from tests.golden_plans import CASES, GOLDEN_PATH, solve_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case_and_solver():
    assert {name: sorted(records) for name, records in GOLDEN.items()} == {
        name: sorted(solvers) for name, (_build, solvers) in CASES.items()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_plans_are_bit_identical_to_the_fixture(case):
    for solver_name, record in solve_case(case):
        assert record == GOLDEN[case][solver_name], (case, solver_name)
