"""Every scripted single ask, field for field, against the recorded fixture.

The fixture was recorded at the commit before ``execute`` became
``execute_many`` of one request (see :mod:`tests.golden_pipeline`);
equality here is ``==`` on results, database confidences, counters, audit
frame payloads and the journal's digest.  The span tree is compared whole,
except for the scenarios listed in ``HOP0_SPAN_ADDED``: those must differ
from the fixture by exactly the one hop-0 ``pcqe.solver_attempt`` span.
"""

import json

import pytest

from tests.golden_pipeline import (
    GOLDEN_PATH,
    HOP0_SPAN_ADDED,
    SCENARIOS,
    run_scenario,
    without_hop0,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(SCENARIOS)
    assert HOP0_SPAN_ADDED <= set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_ask_is_identical_to_the_fixture(name):
    record = json.loads(json.dumps(run_scenario(name)))
    golden = dict(GOLDEN[name])
    if name in HOP0_SPAN_ADDED:
        # The listed difference, checked exactly: one new hop-0 attempt by
        # the primary, and the fixture's tree once it is spliced out.
        assert golden.pop("attempts") == []
        (attempt,) = record.pop("attempts")
        assert attempt[1] == 0
        assert record["spans"] != golden["spans"]
        record["spans"] = without_hop0(record["spans"])
    for key in golden:
        assert record[key] == golden[key], (name, key)
    assert sorted(record) == sorted(golden)
