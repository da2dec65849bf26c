"""``execute(r)`` is ``execute_many([r])``'s only result.

One request runs through the same function as a batch, so from identical
database copies the two entry points must agree field by field — status,
threshold, released rows and confidences, quote, receipt, degradation —
and leave the databases with equal confidences.  Checked over the paper's
running example and the healthcare scenario, across users, purposes,
required fractions, solvers and approval answers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PCQEngine, QueryRequest
from repro.workload import (
    VentureCapitalScenario,
    healthcare_database,
    venture_capital_database,
)
from tests.golden_pipeline import (
    EXCEPT_QUERY,
    TREATMENTS_QUERY,
    database_fingerprint,
    result_record,
)

RUNNING_EXAMPLE = st.tuples(
    st.just(venture_capital_database),
    st.sampled_from([VentureCapitalScenario.QUERY, EXCEPT_QUERY]),
    st.sampled_from([("bob", "investment"), ("alice", "analysis")]),
    st.sampled_from(["heuristic", "greedy", "dnc", "local-search"]),
)
HEALTHCARE = st.tuples(
    st.builds(
        lambda patients, seed: lambda: healthcare_database(patients, seed=seed),
        st.integers(min_value=5, max_value=25),
        st.integers(min_value=0, max_value=5),
    ),
    st.sampled_from(
        [
            TREATMENTS_QUERY,
            "SELECT PatientId, Stage FROM Patients WHERE Stage <> 'I'",
            "SELECT DISTINCT Diagnosis FROM Patients",
        ]
    ),
    st.sampled_from(
        [
            ("rachel", "research"),
            ("omar", "treatment-evaluation"),
            ("petra", "care"),
        ]
    ),
    st.sampled_from(["greedy", "dnc"]),
)


@settings(max_examples=60, deadline=None)
@given(
    case=st.one_of(RUNNING_EXAMPLE, HEALTHCARE),
    fraction=st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]),
    approve=st.booleans(),
)
def test_execute_is_execute_many_of_one_request(case, fraction, approve):
    build, sql, (user, purpose), solver = case
    request = QueryRequest(sql, purpose, fraction)

    def engine_over(scenario):
        return PCQEngine(
            scenario.db,
            scenario.policies,
            solver=solver,
            approval=lambda _quote: approve,
        )

    alone, batched = build(), build()
    single = engine_over(alone).execute(request, user=user)
    batch = engine_over(batched).execute_many([request], user=user)
    (only,) = batch.results
    assert result_record(single) == result_record(only)
    assert database_fingerprint(alone.db) == database_fingerprint(batched.db)
    assert (batch.quote is None) == (single.quote is None)
    assert batch.improved == (single.receipt is not None)
