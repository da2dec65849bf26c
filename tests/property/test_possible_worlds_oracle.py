"""Exact confidence against brute-force possible-worlds enumeration.

The oracle (:func:`tests.oracle.possible_worlds`) shares no code with the
engine: it enumerates all 2ⁿ worlds of a lineage's n ≤ 12 base tuples.  It
is the value reference:

* :func:`probability` — the formula compiled into a pool of its own — is
  within 1e-12 of it, and a circuit in a pool that compiled other
  formulas first equals that *exactly*;
* ``ResultSet.confidences`` is within 1e-12 of it on the columnar engine
  (the deferred path's arithmetic over factors) and on the native one
  (circuits).
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
    var,
)
from repro.sql import run_sql
from repro.storage import Database, INTEGER, Schema, TEXT, TupleId

from tests.oracle import possible_worlds

POOL = [TupleId("t", i) for i in range(12)]
TOLERANCE = 1e-12


def formulas():
    """Random ∧/∨/¬ trees over twelve variables; repeats across branches
    entangle clusters, so Shannon expansion is exercised, not just the
    independence rule."""
    leaves = st.sampled_from(POOL).map(var)

    def extend(children):
        parts = st.lists(children, min_size=2, max_size=4)
        return st.one_of(
            parts.map(lambda items: lineage_and(*items)),
            parts.map(lambda items: lineage_or(*items)),
            children.map(lineage_not),
        )

    return st.recursive(leaves, extend, max_leaves=16)


probability_maps = st.fixed_dictionaries(
    {
        tid: st.one_of(
            st.sampled_from([0.0, 1.0]),
            st.floats(min_value=0.0, max_value=1.0),
        )
        for tid in POOL
    }
)


@settings(max_examples=200, deadline=None)
@given(formulas(), probability_maps)
def test_reference_and_circuit_match_possible_worlds(formula, probs):
    reference = probability(formula, probs)
    assert abs(reference - possible_worlds(formula, probs)) <= TOLERANCE
    pool = CircuitPool()
    pool.compile(lineage_not(formula))  # every subcircuit is shared
    assert pool.compile(formula).evaluate(probs) == reference


# -- through both engines ---------------------------------------------------

rows = st.lists(
    st.tuples(
        st.sampled_from("abc"),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    max_size=6,  # two tables ⇒ at most twelve base tuples per lineage
)

# Joins conjoin, DISTINCT/UNION disjoin, EXCEPT/NOT IN negate.
QUERIES = [
    "SELECT t.k, u.n FROM t JOIN u ON t.k = u.k",
    "SELECT DISTINCT k FROM t",
    "SELECT DISTINCT t.k FROM t JOIN u ON t.k = u.k WHERE u.n > 0",
    "SELECT k FROM t UNION SELECT k FROM u",
    "SELECT k FROM t EXCEPT SELECT k FROM u",
    "SELECT k FROM t INTERSECT SELECT k FROM u WHERE n < 3",
    "SELECT k, n FROM t WHERE k NOT IN (SELECT k FROM u WHERE n > 1)",
    "SELECT DISTINCT k FROM t WHERE k IN (SELECT k FROM u)",
    "SELECT cand.k, u.n FROM (SELECT DISTINCT k FROM t WHERE n > 0) AS cand "
    "JOIN u ON cand.k = u.k",
]


def make_db(data_t, data_u) -> Database:
    db = Database("worlds")
    for name, data in (("t", data_t), ("u", data_u)):
        table = db.create_table(name, Schema.of(("k", TEXT), ("n", INTEGER)))
        for key, number, confidence in data:
            table.insert([key, number], confidence=confidence)
    return db


@settings(max_examples=120, deadline=None)
@given(rows, rows, st.sampled_from(QUERIES))
def test_result_confidences_match_possible_worlds_on_both_engines(
    data_t, data_u, sql
):
    db = make_db(data_t, data_u)
    for engine in ("columnar", "native"):
        result = run_sql(db, sql, engine=engine)
        confidences = result.confidences(db)
        assert len(confidences) == len(result.rows)
        for row, confidence in zip(result.rows, confidences):
            assert len(row.lineage.variables) <= len(POOL)
            probs = db.confidences(row.lineage.variables)
            assert abs(confidence - possible_worlds(row.lineage, probs)) <= (
                TOLERANCE
            )
