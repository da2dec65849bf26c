"""Property-based differential testing of the execution engines.

Random databases and random plan shapes (scan/filter/project/join/
semijoin/set-operation/aggregate/sort nests, with DISTINCT, LIMIT, and
arithmetic projections) must produce identical rows, structurally
identical lineage formulas, bit-identical confidences, and identical
error messages on the columnar engine and the native reference — on
tables of 0 to 10⁴ rows.

A result whose lineage stayed deferred to the root answers
``confidences`` with a product over its factors — base tuples, and the
groups DISTINCT, GROUP BY and ``IN`` emit, each computed as its circuit
would compute it.  Two references hold it: for generated plans that number
is bit-identical to the circuit of the lineage it stands for, compiled in a
pool of its own (``probability``) and in the native engine's shared pool,
and within 1e-12 of possible-worlds enumeration — before and after a
confidence write-back, whatever was read first.

DML shares the predicate path: the rows ``UPDATE``/``DELETE … WHERE p``
touch are the rows ``SELECT * FROM t WHERE p`` returns on either engine,
and a ``p`` that fails fails the same way in all three statements.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, ReproError
from repro.lineage import probability
from repro.policy import PolicyStore
from repro.server.mvcc import MVCCDatabase
from repro.server.session import Session
from repro.sql import execute_sql, run_sql
from repro.storage import Database, INTEGER, REAL, Schema, TEXT
from tests.oracle import close_to_worlds, possible_worlds
from tests.error_codes import raises_code

KEYS = "abcd"

rows_t = st.lists(
    st.tuples(
        st.sampled_from(KEYS),
        st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
        st.floats(min_value=0.05, max_value=0.95),
        st.sampled_from([None, None, 0.5, -1.25, 2.0, 3.75]),
    ),
    max_size=8,
)
row_u = st.tuples(
    st.sampled_from(KEYS),
    st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
    st.floats(min_value=0.05, max_value=0.95),
)
rows_u = st.lists(row_u, max_size=8)


def make_db(data_t, data_u) -> Database:
    db = Database("prop")
    t = db.create_table(
        "t", Schema.of(("k", TEXT), ("v", INTEGER), ("r", REAL))
    )
    for key, value, confidence, real in data_t:
        t.insert([key, value, real], confidence=round(confidence, 3))
    u = db.create_table("u", Schema.of(("k", TEXT), ("w", INTEGER)))
    for key, value, confidence in data_u:
        u.insert([key, value], confidence=round(confidence, 3))
    return db


# A recursive grammar of SELECTs whose output schema is always (k, n).
base_query = st.sampled_from(
    [
        "SELECT k, v AS n FROM t",
        "SELECT k, v AS n FROM t WHERE v > 0",
        "SELECT k, v AS n FROM t WHERE v IS NOT NULL",
        "SELECT DISTINCT k, v AS n FROM t",
        "SELECT k, v + 1 AS n FROM t WHERE v < 3",
        "SELECT k, w AS n FROM u WHERE w <> 2",
        "SELECT t.k, u.w AS n FROM t JOIN u ON t.k = u.k",
        "SELECT t.k, u.w AS n FROM t LEFT JOIN u ON t.k = u.k",
        "SELECT t.k, u.w AS n FROM t JOIN u ON t.v < u.w",
        "SELECT k, v AS n FROM t WHERE k IN (SELECT k FROM u)",
        "SELECT k, v AS n FROM t WHERE k NOT IN (SELECT k FROM u WHERE w > 0)",
        # Filter / projections that raise on v = 0 (and on different rows
        # per item): both engines must report the same expression and row.
        "SELECT k, v AS n FROM t WHERE 10 / v > 1",
        "SELECT k, 10 % v AS n FROM t",
        # Aggregates (INTEGER n): COUNT(*), COUNT(col), COUNT(DISTINCT),
        # SUM/MIN/MAX over possibly all-NULL groups, HAVING, join input.
        "SELECT k, COUNT(*) AS n FROM t GROUP BY k",
        "SELECT k, COUNT(v) AS n FROM t GROUP BY k",
        "SELECT k, COUNT(DISTINCT v) AS n FROM t GROUP BY k",
        "SELECT k, SUM(v) AS n FROM t GROUP BY k",
        "SELECT k, MIN(v) AS n FROM t GROUP BY k",
        "SELECT k, MAX(w) AS n FROM u WHERE w <> 2 GROUP BY k",
        "SELECT k, SUM(v) AS n FROM t GROUP BY k HAVING COUNT(*) > 1",
        "SELECT t.k, SUM(u.w) AS n FROM t JOIN u ON t.k = u.k GROUP BY t.k",
        "SELECT k, SUM(v % 2) AS n FROM t GROUP BY k",
    ]
)

# Standalone shapes: global aggregates (one certain TOP-lineage row over
# an empty input), REAL vs INTEGER SUM typing, AVG, expression group
# keys, and an aggregate argument / group key that raises on v = 0.
standalone_query = st.sampled_from(
    [
        "SELECT COUNT(*), COUNT(v), COUNT(DISTINCT k), SUM(v), SUM(r), "
        "AVG(v), AVG(r), MIN(r), MAX(k) FROM t",
        "SELECT COUNT(*), SUM(v), MIN(k) FROM t WHERE v > 99",
        "SELECT k, SUM(r), SUM(v), AVG(v), MAX(r) FROM t GROUP BY k",
        "SELECT k, v, COUNT(*) FROM t GROUP BY k, v",
        "SELECT v % 2, COUNT(*), SUM(DISTINCT v) FROM t GROUP BY v % 2",
        "SELECT SUM(10 / v) FROM t",
        "SELECT k, MIN(10 / v) FROM t GROUP BY k",
        "SELECT 10 / v, COUNT(*) FROM t GROUP BY 10 / v",
        "SELECT k, 10 / v, 10 / (v - 1) FROM t",
        "SELECT k, v, r FROM t ORDER BY r DESC, v, k DESC",
        "SELECT k, COUNT(*) AS c FROM t GROUP BY k ORDER BY c DESC, k",
    ]
)

# ORDER BY trailers over the (k, n) schema: multi-key, DESC, NULLs first
# ascending / last descending, ties (stability), and ORDER BY + LIMIT.
order_by = st.sampled_from(
    [
        "ORDER BY n",
        "ORDER BY n DESC",
        "ORDER BY k",
        "ORDER BY k DESC, n",
        "ORDER BY n DESC, k DESC",
        "ORDER BY n LIMIT 3",
    ]
)


def combine(left: str, right: str, op: str) -> str:
    return f"{left} {op} {right}"


query = st.one_of(
    base_query,
    st.builds(
        combine,
        base_query,
        base_query,
        st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]),
    ),
    st.builds(lambda q: f"{q} LIMIT 3", base_query),
    st.builds(lambda q, order: f"{q} {order}", base_query, order_by),
    st.builds(
        lambda left, right, op, order: f"{left} {op} {right} {order}",
        base_query,
        base_query,
        st.sampled_from(["UNION", "UNION ALL", "EXCEPT"]),
        order_by,
    ),
    standalone_query,
)


def assert_engines_agree(db: Database, sql: str) -> None:
    try:
        native = run_sql(db, sql, engine="native")
    except ExecutionError as native_error:
        with pytest.raises(ExecutionError) as columnar_error:
            run_sql(db, sql, engine="columnar")
        assert str(columnar_error.value) == str(native_error)
        return
    columnar = run_sql(db, sql, engine="columnar")
    assert native.schema == columnar.schema
    assert [row.values for row in native.rows] == [
        row.values for row in columnar.rows
    ]
    assert [row.lineage for row in native.rows] == [
        row.lineage for row in columnar.rows
    ]
    # Bit-identical, not approximately equal: same circuits, same sweeps.
    assert native.confidences(db) == columnar.confidences(db)


@settings(max_examples=300, deadline=None)
@given(rows_t, rows_u, query)
def test_random_plans_are_engine_equivalent(data_t, data_u, sql):
    assert_engines_agree(make_db(data_t, data_u), sql)


@settings(max_examples=40, deadline=None)
@given(rows_t, rows_u)
def test_nested_subquery_join_is_engine_equivalent(data_t, data_u):
    db = make_db(data_t, data_u)
    assert_engines_agree(
        db,
        "SELECT cand.k, u.w FROM "
        "(SELECT DISTINCT k FROM t WHERE v > 0) AS cand "
        "JOIN u ON cand.k = u.k",
    )


# -- one predicate path: DML WHERE ≡ SELECT WHERE ------------------------------

_atoms = st.sampled_from(
    [
        "v > 0", "v <= 2", "v IS NULL", "v IS NOT NULL", "r < 1.0", "r IS NULL",
        "k = 'a'", "k <> 'b'", "k LIKE 'a%'", "v BETWEEN -1 AND 2", "TRUE",
        "'a' = k", "1 <= v", "0.5 > r",
        "k IN ('a', 'c')", "k NOT IN ('b', 'd')", "v IN (1, 2, NULL)",
        "v NOT IN (0, NULL)", "r IN (0.5, 2.0)",
        # Raise on v = 0 — unless a guard to their left decided the row.
        "10 / v > 1", "10 % v = 1", "r / v > 0.5",
        "nope = 1",  # does not bind
    ]
)
_predicates = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds("({} AND {})".format, inner, inner),
        st.builds("({} OR {})".format, inner, inner),
        st.builds("NOT {}".format, inner),
    ),
    max_leaves=4,
)
# Not boolean: refused by the Filter node itself, or by the connective
# above it.  (Not generated: a non-boolean operand of a *top-level* AND —
# the SELECT planner splits those conjuncts into filters of their own and
# reports the Filter's PlanError where DML's one Filter reports the AND's
# BindError; both refuse the statement.)
_untyped = st.sampled_from(["v", "k", "v + 1", "(v OR k = 'a')", "NOT r"])
where_clause = st.one_of(
    _predicates,
    st.builds("{} AND {}".format, _predicates, _predicates),
    _untyped,
)


def _outcome(statement):
    """``("ok", tuple ids the statement selected)`` or how it failed."""
    try:
        return "ok", statement()
    except ReproError as error:
        return type(error), str(error)


@settings(max_examples=1000, deadline=None)
@given(rows_t, where_clause)
def test_dml_where_selects_what_select_where_selects(data_t, where):
    db = make_db(data_t, [])
    before = [(row.tid, row.values, row.confidence) for row in db.table("t").scan()]

    def select(engine):
        rows = run_sql(db, f"SELECT * FROM t WHERE {where}", engine=engine).rows
        return tuple(tid for row in rows for tid in row.lineage.variables)

    expected = _outcome(lambda: select("native"))
    assert _outcome(lambda: select("columnar")) == expected
    for statement in (f"UPDATE t SET v = v, k = 'z' WHERE {where}",
                      f"DELETE FROM t WHERE {where}"):
        target = db.clone()
        got = _outcome(lambda: execute_sql(target, statement).tuple_ids)
        assert got == expected, statement
        after = [(r.tid, r.values, r.confidence) for r in target.table("t").scan()]
        status, selected = expected
        if status != "ok":  # refused: nothing changed
            assert after == before
        elif statement.startswith("DELETE"):
            assert after == [row for row in before if row[0] not in selected]
        else:
            assert after == [
                (tid, ("z", *values[1:]) if tid in selected else values, c)
                for tid, values, c in before
            ]


# The selection path: each conjunct runs on the rows the earlier ones left
# not False, a literal may sit on either side of a comparison, and a
# compared column may hold NULLs (then the comparison takes the default
# path).  ``t``: a NULL ``r`` beside ``v = 0``, and NULLs in ``v``.
SELECTION_ROWS = [
    ("a", 0, 0.5, None),
    ("b", 2, 0.6, 1.0),
    ("a", None, 0.7, 2.0),
    ("c", 3, 0.8, -1.25),
    ("d", -1, 0.9, 0.5),
]


def test_a_null_left_conjunct_still_runs_the_right_one():
    """``r > 0`` is NULL on the first row, not False, so ``10 / v > 1``
    runs there as it does natively — and divides by zero on both
    engines.  Running it on the rows the left kept True would skip it."""
    db = make_db(SELECTION_ROWS, [])
    sql = "SELECT k, v FROM t WHERE r > 0 AND 10 / v > 1"
    with pytest.raises(ExecutionError, match="division by zero"):
        run_sql(db, sql, engine="native")
    assert_engines_agree(db, sql)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT k, v FROM t WHERE 'a' = k",
        "SELECT k, v FROM t WHERE 1 < v AND 'b' >= k",
        "SELECT k, v FROM t WHERE v > 0 AND k <> 'c'",
        "SELECT k, v FROM t WHERE NOT (v > 0 AND r < 1.5)",
        "SELECT k, v FROM t WHERE (v > -1 AND 'a' = k) OR r IS NULL",
        "SELECT k, v FROM t WHERE r < 1.5 AND v IS NULL",
    ],
)
def test_selection_inputs_are_engine_equivalent(sql):
    assert_engines_agree(make_db(SELECTION_ROWS, []), sql)


# A tiny filtered input against a large one, on either side of the join:
# the equi-join hashes whichever input is shorter, ``IN`` materialises only
# the subquery values that are probed.
lopsided_query = st.sampled_from(
    [
        "SELECT t.k, t.v, u.w FROM t JOIN u ON t.k = u.k WHERE t.v > 2",
        "SELECT t.k, t.v, u.w FROM u JOIN t ON u.k = t.k WHERE t.v > 2",
        "SELECT t.k, t.v, u.w FROM t LEFT JOIN u ON t.k = u.k WHERE t.v > 2",
        "SELECT u.k, u.w, f.v FROM u LEFT JOIN "
        "(SELECT k, v FROM t WHERE v > 2) AS f ON u.k = f.k",
        "SELECT k, v FROM t WHERE v > 2 AND k IN (SELECT k FROM u)",
        "SELECT k, w FROM u WHERE k NOT IN (SELECT k FROM t WHERE v > 2)",
    ]
)


@settings(max_examples=80, deadline=None)
@given(rows_t, st.lists(row_u, min_size=20, max_size=60), lopsided_query)
def test_lopsided_joins_are_engine_equivalent(data_t, data_u, sql):
    assert_engines_agree(make_db(data_t, data_u), sql)


@settings(max_examples=40, deadline=None)
@given(rows_t, rows_u)
def test_auto_mode_matches_native(data_t, data_u):
    """No ``engine=`` — what the deleted ``auto`` mode used to decide —
    runs columnar and equals the native reference, however small the
    tables."""
    db = make_db(data_t, data_u)
    sql = "SELECT t.k, u.w AS n FROM t JOIN u ON t.k = u.k WHERE u.w > 0"
    native = run_sql(db, sql, engine="native")
    default = run_sql(db, sql)
    assert default.engine == "columnar"
    assert [row.values for row in native.rows] == [
        row.values for row in default.rows
    ]
    assert native.confidences(db) == default.confidences(db)


SIZED_QUERIES = [
    "SELECT k, v AS n FROM t WHERE v > 0",
    "SELECT DISTINCT k, v AS n FROM t",
    "SELECT t.k, u.w AS n FROM t JOIN u ON t.k = u.k WHERE u.w > 0",
    "SELECT k, v AS n FROM t WHERE k IN (SELECT k FROM u WHERE w > 2)",
    "SELECT k, COUNT(*), COUNT(DISTINCT v), SUM(v), SUM(r), AVG(r), MIN(v), "
    "MAX(r) FROM t GROUP BY k",
    "SELECT COUNT(*), SUM(v), SUM(r), AVG(v), MIN(k), MAX(r) FROM t",
    "SELECT t.k, COUNT(*) AS c, SUM(u.w) AS s FROM t JOIN u ON t.k = u.k "
    "GROUP BY t.k ORDER BY s DESC, c",
    "SELECT k, v, r FROM t ORDER BY v DESC, r, k",
    "SELECT k, v FROM t ORDER BY v LIMIT 5",
]


def sized_db(size: int) -> Database:
    """A seeded *size*-row ``t`` and ``u`` (~2 rows per join key)."""
    rng = random.Random(size)
    keys = [f"k{i}" for i in range(size // 2 + 1)]

    def rows(with_real: bool):
        for _ in range(size):
            row = [
                rng.choice(keys),
                rng.choice([None, *range(-5, 6)]),
                round(rng.uniform(0.05, 0.95), 3),
            ]
            if with_real:
                row.append(rng.choice([None, 0.5, -1.25, 2.0, 3.75]))
            yield tuple(row)

    return make_db(list(rows(True)), list(rows(False)))


@pytest.mark.parametrize("size", [0, 1, 2, 10, 250, 10_000])
def test_table_sizes_from_empty_to_ten_thousand_rows(size):
    db = sized_db(size)
    for sql in SIZED_QUERIES:
        assert_engines_agree(db, sql)


# -- deferred lineage: a product-form row's confidence is a product ------------

# SPJ plans whose lineage the columnar engine keeps deferred to the root
# (scan / filter / project / inner equi-join / sort / limit), next to the
# shapes that must leave that path: a residual conjunct in ON, a self-join
# (two tid columns of one table), DISTINCT below or above a join.  ``s.x``
# is REAL and joins INTEGER ``t.v``: ``1 = 1.0`` keys are hash-equal.
rows_s = st.lists(
    st.tuples(
        st.sampled_from([None, -1.0, 0.0, 1.0, 2.0, 2.5]),
        st.sampled_from(KEYS),
        st.floats(min_value=0.05, max_value=0.95),
    ),
    max_size=6,
)

spj_query = st.sampled_from(
    [
        "SELECT k, v FROM t WHERE v > 0",
        "SELECT t.k, t.v, u.w FROM t JOIN u ON t.k = u.k",
        "SELECT u.w, t.r FROM u JOIN t ON u.k = t.k WHERE t.v IS NOT NULL",
        "SELECT t.k, s.x FROM t JOIN s ON t.v = s.x",
        "SELECT s.x, t.v FROM s JOIN t ON s.x = t.v WHERE s.x < 2",
        # Three-way, left-deep and — through a derived table — right-deep.
        "SELECT t.k, u.w, s.x FROM t JOIN u ON t.k = u.k JOIN s ON t.v = s.x",
        "SELECT t.k, us.w, us.x FROM t JOIN "
        "(SELECT u.k AS k, u.w AS w, s.x AS x FROM u JOIN s ON u.k = s.j) AS us "
        "ON t.k = us.k",
        "SELECT ts.k, u.w FROM "
        "(SELECT t.k AS k, s.x AS x FROM t JOIN s ON t.v = s.x) AS ts "
        "JOIN u ON ts.k = u.k WHERE u.w > 0",
        "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k AND t.v < u.w",
        "SELECT a.k, a.v, b.v FROM t a JOIN t b ON a.k = b.k",
        "SELECT a.v, b.r FROM t a JOIN t b ON a.v = b.v WHERE a.v > 0",
        "SELECT tv.k, u.w FROM tv JOIN u ON tv.k = u.k",
        "SELECT d.k, u.w FROM (SELECT DISTINCT k FROM t WHERE v > 0) AS d "
        "JOIN u ON d.k = u.k",
        "SELECT DISTINCT t.k, u.w FROM t JOIN u ON t.k = u.k",
        "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k WHERE t.v > 99",
    ]
)
spj_trailer = st.sampled_from(
    ["", "ORDER BY 1", "ORDER BY 2 DESC, 1", "LIMIT 3", "ORDER BY 1 DESC LIMIT 4"]
)


def make_spj_db(data_t, data_u, data_s) -> Database:
    db = make_db(data_t, data_u)
    s = db.create_table("s", Schema.of(("x", REAL), ("j", TEXT)))
    for x, key, confidence in data_s:
        s.insert([x, key], confidence=round(confidence, 3))
    execute_sql(db, "CREATE VIEW tv AS SELECT k, v FROM t WHERE v <> 1")
    return db


def _hex(values) -> list[str]:
    return [float(value).hex() for value in values]


def _assert_confidences_are_the_lineage_probabilities(db, sql) -> None:
    probabilities = {
        row.tid: row.confidence for table in db.tables() for row in table.scan()
    }
    columnar = run_sql(db, sql, engine="columnar")
    # Confidences first: a deferred result answers without a formula.
    confidences = columnar.confidences(db)
    assert _hex(confidences) == _hex(
        probability(row.lineage, probabilities) for row in columnar.rows
    )
    # Read by ordinal off the tables, or per tuple off a map: one number.
    assert _hex(confidences) == _hex(
        columnar.confidences(db.confidences(columnar.base_tuples()))
    )
    native = run_sql(db, sql, engine="native")
    assert _hex(confidences) == _hex(native.confidences(db))
    for row, confidence in zip(columnar.rows, confidences):
        if len(row.lineage.variables) <= 16:
            exact = possible_worlds(row.lineage, probabilities)
            assert abs(confidence - exact) < 1e-12
    # Rows first, then confidences: the same rows, the same numbers.
    rows_first = run_sql(db, sql, engine="columnar")
    assert [(r.values, r.lineage) for r in rows_first.rows] == [
        (r.values, r.lineage) for r in columnar.rows
    ] == [(r.values, r.lineage) for r in native.rows]
    assert _hex(rows_first.confidences(db)) == _hex(confidences)
    assert columnar.values() == rows_first.values() == native.values()
    assert columnar.base_tuples() == native.base_tuples()
    assert columnar.row_base_tuples() == native.row_base_tuples()


def _assert_deferred_path(db, sql) -> None:
    """:func:`_assert_confidences_are_the_lineage_probabilities`, then the
    same again after a write-back, then a map that lacks a tuple."""
    _assert_confidences_are_the_lineage_probabilities(db, sql)

    # The same ResultSet after a confidence write-back: a still-deferred
    # result multiplies the new numbers, a compiled one sweeps them.
    deferred = run_sql(db, sql, engine="columnar")
    compiled = run_sql(db, sql, engine="native")
    before = deferred.confidences(db)
    assert _hex(before) == _hex(compiled.confidences(db))
    db.apply_confidences(
        {
            tid: round(1.0 - db.confidences([tid])[tid] / 2, 3)
            for tid in sorted(deferred.base_tuples())[::2]
        }
    )
    after = deferred.confidences(db)
    assert _hex(after) == _hex(compiled.confidences(db))
    probabilities = db.confidences(deferred.base_tuples())
    assert _hex(after) == _hex(
        probability(row.lineage, probabilities) for row in deferred.rows
    )
    for row, confidence in zip(deferred.rows, after):
        if len(row.lineage.variables) <= 12:
            assert close_to_worlds(confidence, row.lineage, probabilities)

    # A probability map that lacks one tuple a circuit reads: the same
    # refusal, whichever path would have read it.  A tuple every circuit
    # simplified away (``t0 ∧ (t0 ∨ t1)`` is ``t0``) is read by neither:
    # the same numbers from both.
    read = frozenset().union(
        *(circuit.support for circuit in compiled.compiled_circuits())
    )
    for missing in sorted(deferred.base_tuples())[:2]:
        partial = {
            tid: p for tid, p in probabilities.items() if tid != missing
        }
        if missing not in read:
            assert _hex(compiled.confidences(partial)) == _hex(
                run_sql(db, sql, engine="columnar").confidences(partial)
            )
            continue
        with raises_code(ReproError, "LineageError") as compiled_error:
            compiled.confidences(partial)
        with raises_code(ReproError, "LineageError") as deferred_error:
            run_sql(db, sql, engine="columnar").confidences(partial)
        assert str(deferred_error.value) == str(compiled_error.value)


@settings(max_examples=250, deadline=None)
@given(rows_t, rows_u, rows_s, spj_query, spj_trailer)
def test_deferred_confidences_are_bit_identical_to_lineage_probability(
    data_t, data_u, data_s, query_text, trailer
):
    db = make_spj_db(data_t, data_u, data_s)
    _assert_deferred_path(db, f"{query_text} {trailer}".strip())


# Plans whose ORs stay groups: DISTINCT / GROUP BY over one, two and
# three tables (star-shaped — one side repeats within a key — or not, as
# the data falls), ``IN`` / ``NOT IN`` with NULL probes, NULLs in the
# subquery, an empty subquery, INTEGER ``v`` probing REAL ``s.x`` and a
# two-table subquery (one-member groups of a two-table member, spliced
# into the row's product), views and derived tables; next to the shapes
# that must compile: a self-semijoin, a group over a group, UNION.
group_query = st.sampled_from(
    [
        "SELECT DISTINCT k FROM t",
        "SELECT DISTINCT k FROM tv WHERE v > 0",
        "SELECT DISTINCT t.k FROM t JOIN u ON t.k = u.k",
        "SELECT DISTINCT u.w FROM t JOIN u ON t.k = u.k",
        "SELECT DISTINCT t.k, u.w FROM t JOIN u ON t.k = u.k",
        "SELECT DISTINCT t.k FROM t JOIN u ON t.k = u.k JOIN s ON t.v = s.x",
        "SELECT d.k, s.x FROM (SELECT DISTINCT t.k AS k FROM t JOIN u "
        "ON t.k = u.k) AS d JOIN s ON d.k = s.j",
        "SELECT s.x, d.k FROM s JOIN (SELECT DISTINCT t.k AS k, u.w AS w "
        "FROM t JOIN u ON t.k = u.k) AS d ON s.j = d.k",
        "SELECT k, COUNT(*) FROM t GROUP BY k",
        "SELECT COUNT(*), SUM(v) FROM t",
        "SELECT COUNT(*) FROM t WHERE v > 99",
        "SELECT t.k, SUM(u.w) FROM t JOIN u ON t.k = u.k GROUP BY t.k",
        "SELECT u.w, COUNT(*) FROM u JOIN t ON u.k = t.k GROUP BY u.w",
        "SELECT k, v FROM t WHERE k IN (SELECT k FROM u)",
        "SELECT k, v FROM t WHERE v IN (SELECT w FROM u)",
        "SELECT k, v FROM t WHERE v NOT IN (SELECT w FROM u)",
        "SELECT k, v FROM t WHERE v NOT IN (SELECT w FROM u WHERE w IS NOT NULL)",
        "SELECT k, v FROM t WHERE v IN (SELECT w FROM u WHERE w > 99)",
        "SELECT k, v FROM t WHERE v NOT IN (SELECT w FROM u WHERE w > 99)",
        "SELECT k, v FROM t WHERE v IN (SELECT x FROM s)",
        "SELECT k FROM tv WHERE k IN (SELECT k FROM u WHERE w > 0)",
        "SELECT k, v FROM t WHERE k IN (SELECT u.k FROM u JOIN s ON u.k = s.j)",
        "SELECT k FROM t WHERE k NOT IN (SELECT u.k FROM u JOIN s ON u.k = s.j)",
        "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k "
        "WHERE t.v IN (SELECT x FROM s)",
        "SELECT k, v FROM t WHERE v IN (SELECT v FROM t WHERE v > 0)",
        "SELECT DISTINCT k FROM t WHERE k IN (SELECT k FROM u)",
        "SELECT k, COUNT(*) FROM (SELECT DISTINCT k, v FROM t) AS d GROUP BY k",
        "SELECT k FROM t WHERE k IN (SELECT d.k FROM (SELECT DISTINCT k FROM u) AS d)",
        "SELECT k FROM t UNION SELECT k FROM u",
    ]
)
group_trailer = st.sampled_from(
    ["", "ORDER BY 1", "ORDER BY 1 DESC LIMIT 2", "LIMIT 3"]
)


@settings(max_examples=300, deadline=None)
@given(rows_t, rows_u, rows_s, group_query, group_trailer)
def test_group_confidences_are_bit_identical_to_lineage_probability(
    data_t, data_u, data_s, query_text, trailer
):
    db = make_spj_db(data_t, data_u, data_s)
    _assert_deferred_path(db, f"{query_text} {trailer}".strip())


STAR_QUERIES = [
    # One cluster per group (t.k is unique: the hub is the key's t row).
    "SELECT DISTINCT t.k FROM t JOIN u ON t.k = u.k",
    # Several clusters per group, one per t row — interleaved when the
    # hub side is the right one (u rows are stored shuffled), where the
    # clusters' order shows in the last bit of a three-cluster OR.
    "SELECT DISTINCT t.v FROM t JOIN u ON t.k = u.k",
    "SELECT DISTINCT t.r FROM u JOIN t ON u.k = t.k",
    "SELECT DISTINCT u.w FROM t JOIN u ON t.k = u.k",
    "SELECT t.v, COUNT(*), SUM(u.w) FROM t JOIN u ON t.k = u.k GROUP BY t.v",
    # One-member groups of a two-table member, after another factor.
    "SELECT s.x, d.k FROM s JOIN (SELECT DISTINCT t.k AS k, u.w AS w "
    "FROM t JOIN u ON t.k = u.k) AS d ON s.j = d.k",
    "SELECT k, w FROM u WHERE k IN (SELECT t.k FROM t JOIN s ON t.k = s.j)",
    "SELECT k, w FROM u WHERE k IN "
    "(SELECT t.k FROM t JOIN s ON t.k = s.j WHERE s.x > 1.5)",
    "SELECT k, w FROM u WHERE k NOT IN "
    "(SELECT t.k FROM t JOIN s ON t.k = s.j WHERE s.x > 1.5 AND t.v > 1)",
    "SELECT k, w FROM u WHERE k IN (SELECT k FROM t WHERE v > 0) ORDER BY w",
]


def test_star_groups_are_products_bit_identical_to_lineage_probability():
    """Every key has one ``t`` row, three ``u`` rows and two ``s`` rows,
    so every group below is star-shaped: the confidences come from the
    product path — no circuit — and still equal the circuits' bit for bit."""
    rng = random.Random(25)
    keys = [f"k{i}" for i in range(60)]
    data_u = [
        (key, i % w, rng.uniform(0.05, 0.95))
        for i, key in enumerate(keys)
        for w in (3, 5, 7)
    ]
    rng.shuffle(data_u)
    db = make_db(
        [
            (key, i % 4, rng.uniform(0.05, 0.95), float(i % 20))
            for i, key in enumerate(keys)
        ],
        data_u,
    )
    db.create_table("s", Schema.of(("x", REAL), ("j", TEXT)))
    for key in keys:
        for x in (0.5, 2.0):
            db.table("s").insert(
                [x, key], confidence=round(rng.uniform(0.05, 0.95), 3)
            )
    for sql in STAR_QUERIES:
        _assert_confidences_are_the_lineage_probabilities(db, sql)
        result = run_sql(db, sql, engine="columnar")
        assert len(result.confidences(db)) == len(result) > 0
        assert not result.has_compiled_circuits, sql


@st.composite
def star_data(draw):
    """``(data_t, data_u)`` whose DISTINCT / GROUP BY groups over ``t.v``
    are star-shaped: one ``t`` row — the hub — per key, 3 to 5 keys per
    ``v`` — so at least 3 clusters per group — and 2 to 4 ``u`` members
    per key, stored in a shuffled order so a group's clusters interleave
    when ``u`` drives the join."""
    groups = draw(st.integers(min_value=1, max_value=2))
    confidence = st.floats(min_value=0.05, max_value=0.95)
    data_t, data_u = [], []
    for v in range(groups):
        for c in range(draw(st.integers(min_value=3, max_value=5))):
            key = f"k{v}.{c}"
            data_t.append((key, v, draw(confidence), float(c)))
            members = draw(st.integers(min_value=2, max_value=3))
            data_u += [(key, w, draw(confidence)) for w in range(members)]
    return data_t, draw(st.permutations(data_u))


STAR_GROUP_QUERIES = [
    "SELECT DISTINCT t.v FROM u JOIN t ON u.k = t.k",
    "SELECT DISTINCT t.v FROM t JOIN u ON t.k = u.k",
    "SELECT t.v, COUNT(*) FROM u JOIN t ON u.k = t.k GROUP BY t.v",
]


@settings(max_examples=100, deadline=None)
@given(star_data())
def test_star_group_clusters_are_combined_in_first_seen_order(data):
    """Generated star-shaped groups take the product path — no circuit —
    and equal the circuits bit for bit: combining a group's hub clusters
    in any order but the compiler's first-seen one moves a last bit.  A
    group over at most twelve tuples is checked by possible worlds too."""
    db = make_db(*data)
    probabilities = {
        row.tid: row.confidence for table in db.tables() for row in table.scan()
    }
    for sql in STAR_GROUP_QUERIES:
        columnar = run_sql(db, sql, engine="columnar")
        confidences = columnar.confidences(db)
        assert not columnar.has_compiled_circuits
        assert _hex(confidences) == _hex(
            probability(row.lineage, probabilities) for row in columnar.rows
        )
        assert _hex(confidences) == _hex(
            run_sql(db, sql, engine="native").confidences(db)
        )
        for row, confidence in zip(columnar.rows, confidences):
            if len(row.lineage.variables) <= 12:
                assert close_to_worlds(confidence, row.lineage, probabilities)


def test_product_order_is_the_flattened_column_order():
    """``MUL`` computes ((1.0·a)·b)·c; float multiplication is not
    associative, so a right-deep join must not multiply b·c first, and
    no join may multiply in table-name order: the tables, created and
    joined as ``z``, ``x``, ``y``, sort to b·c·a."""
    a, b, c = 0.1, 0.7, 0.3
    assert (a * b) * c != a * (b * c) == (b * c) * a
    db = Database("assoc")
    for name, confidence in (("z", a), ("x", b), ("y", c)):
        db.create_table(name, Schema.of(("k", INTEGER))).insert(
            [1], confidence=confidence
        )
    right_deep = (
        "SELECT z.k FROM z JOIN (SELECT x.k AS k FROM x JOIN y ON x.k = y.k) "
        "AS xy ON z.k = xy.k"
    )
    left_deep = "SELECT z.k FROM z JOIN x ON z.k = x.k JOIN y ON x.k = y.k"
    for sql in (right_deep, left_deep):
        result = run_sql(db, sql, engine="columnar")
        assert result.confidences(db) == [(a * b) * c]
        assert not result.has_compiled_circuits
        assert run_sql(db, sql, engine="native").confidences(db) == [(a * b) * c]


def _star_db() -> Database:
    """Every key has one ``t`` row and three ``u`` rows."""
    rng = random.Random(33)
    keys = [f"k{i}" for i in range(12)]
    data_t = [
        (key, i % 3, rng.uniform(0.05, 0.95), 1.0) for i, key in enumerate(keys)
    ]
    data_u = [
        (key, w, rng.uniform(0.05, 0.95)) for key in keys for w in (3, 5, 7)
    ]
    return make_db(data_t, data_u)


def test_not_in_over_an_empty_subquery_reads_no_inner_tuple():
    """Every probe's group is empty — ``¬⊥`` — so the inner column is read
    at no row: the confidences are the outer rows' own."""
    db = _star_db()
    sql = "SELECT k, v FROM t WHERE v NOT IN (SELECT w FROM u WHERE w > 99)"
    _assert_deferred_path(db, sql)
    result = run_sql(db, sql, engine="columnar")
    assert not result.has_compiled_circuits
    assert result.confidences(db) == [row.confidence for row in db.table("t")]


@pytest.mark.parametrize(
    "sql, table",
    [
        ("SELECT t.k, u.w FROM t JOIN u ON t.k = u.k", "u"),
        ("SELECT DISTINCT t.k FROM t JOIN u ON t.k = u.k", "u"),
        ("SELECT k FROM t WHERE k IN (SELECT k FROM u)", "u"),
        ("SELECT k FROM t UNION SELECT k FROM u", "u"),
    ],
    ids=["join", "star-distinct", "in", "compiled"],
)
def test_a_tuple_deleted_after_the_query_is_the_same_refusal(sql, table):
    """The stored value is read when confidences are asked for: a tuple
    deleted since the query raises the batch read's error, word for word,
    whichever path reads it."""
    db = _star_db()
    result = run_sql(db, sql, engine="columnar")
    native = run_sql(db, sql, engine="native")
    victim = sorted(t for t in result.base_tuples() if t.table == table)[1]
    db.table(table).delete(victim)
    with raises_code(ReproError, "UnknownTupleError") as expected:
        db.confidences(native.base_tuples())
    for each in (result, native):
        with raises_code(ReproError, "UnknownTupleError") as raised:
            each.confidences(db)
        assert str(raised.value) == str(expected.value)
    assert f"no tuple {victim} in table" in str(expected.value)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k",
        "SELECT DISTINCT t.k FROM t JOIN u ON t.k = u.k",
        "SELECT k FROM t WHERE k IN (SELECT k FROM u WHERE w > 3)",
        "SELECT k FROM t UNION SELECT k FROM u",
    ],
    ids=["join", "star-distinct", "in", "compiled"],
)
def test_a_pinned_session_reads_its_snapshot(sql):
    """A session's database reads the generation it pinned: a commit
    after the pin moves the live numbers, not the session's, until it
    refreshes."""
    db = _star_db()
    policies = PolicyStore()
    policies.add_role("Analyst")
    policies.add_purpose("review")
    policies.add_user("ann", roles=["Analyst"])
    mvcc = MVCCDatabase(db)
    session = Session(mvcc, policies, "ann", "review")
    try:
        pinned = run_sql(db, sql, engine="native").confidences(db)
        result = run_sql(session.db, sql, engine="columnar")
        mvcc.commit(
            lambda live: live.apply_confidences(
                {tid: 0.5 for tid in result.base_tuples()}
            )
        )
        assert _hex(result.confidences(session.db)) == _hex(pinned)
        assert _hex(result.confidences(session.db)) != _hex(
            result.confidences(db)
        )
        session.refresh()
        assert _hex(result.confidences(session.db)) == _hex(
            result.confidences(db)
        )
        assert _hex(result.confidences(db)) == _hex(
            run_sql(db, sql, engine="native").confidences(db)
        )
        assert result.has_compiled_circuits is ("UNION" in sql)
    finally:
        session.close()


@pytest.mark.parametrize("size", [0, 1, 40, 1_000])
def test_deferred_confidences_on_seeded_tables(size):
    """Every SPJ shape on tables big enough that three-way joins have
    hundreds of rows — and products whose order shows in the last bit."""
    rng = random.Random(size)
    db = sized_db(size)
    s = db.create_table("s", Schema.of(("x", REAL), ("j", TEXT)))
    for _ in range(size // 4):
        s.insert(
            [rng.choice([None, -1.0, 0.0, 1.0, 2.0, 2.5]), f"k{rng.randrange(9)}"],
            confidence=round(rng.uniform(0.05, 0.95), 3),
        )
    execute_sql(db, "CREATE VIEW tv AS SELECT k, v FROM t WHERE v <> 1")
    for sql in spj_query.elements + group_query.elements:
        _assert_confidences_are_the_lineage_probabilities(db, f"{sql} LIMIT 300")
