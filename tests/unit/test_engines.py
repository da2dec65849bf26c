"""Engine modes and columnar kernel edge cases — all differentially
checked against the native reference."""

from __future__ import annotations

import pytest

from repro.algebra import col, lit
from repro.algebra.expressions import Arithmetic
from repro.algebra.plan import PlanNode, Scan, Sort, SortKey
from repro.engines import (
    DEFAULT_ENGINE,
    ENGINE_MODES,
    check_engine,
    pick_engine,
)
from repro.errors import ExecutionError, PlanError, ReproError
from repro.lineage.circuit import CircuitPool
from repro.lineage.formula import TOP, lineage_and, lineage_or, lineage_not, var
from repro.sql import plan_sql, run_sql
from repro.storage import Database, INTEGER, REAL, Schema, TEXT
from tests.error_codes import raises_code


def assert_equivalent(db, sql):
    """Both engines produce identical rows, lineage, and confidences."""
    native = run_sql(db, sql, engine="native")
    columnar = run_sql(db, sql, engine="columnar")
    assert [row.values for row in native.rows] == [
        row.values for row in columnar.rows
    ]
    assert [row.lineage for row in native.rows] == [
        row.lineage for row in columnar.rows
    ]
    assert native.confidences(db) == columnar.confidences(db)
    return native, columnar


@pytest.fixture
def db(proposal_db):
    return proposal_db


# -- engine modes -----------------------------------------------------------


def test_engine_names():
    assert ENGINE_MODES == ("columnar", "native")
    assert DEFAULT_ENGINE == "columnar"


def test_get_engine_roundtrip(db):
    plan = Scan(db.table("Proposal"))
    for mode in ENGINE_MODES:
        assert check_engine(mode) == mode
        assert pick_engine(plan, mode).label == mode


def test_get_engine_unknown():
    """The removed ``auto`` mode included; the error names the valid modes."""
    for name in ("turbo", "auto"):
        with pytest.raises(
            PlanError,
            match=rf"unknown engine '{name}' .*'columnar', 'native'",
        ):
            check_engine(name)


def test_select_engine_rejects_unknown_mode(db):
    with pytest.raises(PlanError, match="unknown engine 'vector'"):
        pick_engine(Scan(db.table("Proposal")), "vector")


@pytest.mark.parametrize("bad", ["bogus", "auto"])
def test_bad_engine_name_fails_at_construction(running_example, bad):
    """A server/session/engine built with a bad name must not start —
    not construct fine and then fail every ask."""
    from repro import PCQEngine
    from repro.server import PCQEServer, Session
    from repro.server.mvcc import MVCCDatabase

    db, policies = running_example.db, running_example.policies
    with pytest.raises(PlanError, match="unknown engine"):
        PCQEngine(db, policies, engine=bad)
    with pytest.raises(PlanError, match="unknown engine"):
        Session(MVCCDatabase(db), policies, "bob", "investment", engine=bad)
    with pytest.raises(PlanError, match="unknown engine"):
        PCQEServer(db, policies, engine=bad)


def test_native_mode_never_rewrites(db):
    plan = plan_sql(db, "SELECT Company FROM Proposal WHERE Funding < 1.0")
    prepared = pick_engine(plan, "native")
    assert prepared.label == "native"
    assert prepared.plan is plan


def test_columnar_mode_takes_supported_tree_whole(db):
    """Every tree is supported: sorts and aggregates run columnar too."""
    for sql in (
        "SELECT Company FROM Proposal WHERE Funding < 1.0",
        "SELECT Company FROM Proposal WHERE Funding < 1.0 ORDER BY Company",
        "SELECT COUNT(*) FROM Proposal",
    ):
        plan = plan_sql(db, sql)
        prepared = pick_engine(plan)
        assert prepared.label == "columnar"
        assert prepared.plan is plan


def test_columnar_engine_rejects_unsupported_nodes(db):
    class Mystery(PlanNode):
        schema = db.table("Proposal").schema

    with pytest.raises(PlanError, match="no columnar kernel for plan node Mystery"):
        pick_engine(Mystery(), "columnar").execute()


def test_prepared_mixed_plan_is_equivalent(db):
    """A sort over a filter — the shape that used to run as a mixed
    ``native+columnar`` tree — is one columnar plan and agrees with native."""
    sql = "SELECT Company FROM Proposal WHERE Funding < 1.0 ORDER BY Company"
    native, columnar = assert_equivalent(db, sql)
    assert native.engine == "native"
    assert columnar.engine == "columnar"


# -- kernel edge cases (differential vs native) -----------------------------


def test_distinct_merges_duplicates_with_or_lineage(db):
    native, columnar = assert_equivalent(
        db, "SELECT DISTINCT Company FROM Proposal"
    )
    duplicated = [
        row for row in columnar.rows if row.values == ("B",)
    ]
    assert len(duplicated) == 1
    b_tids = [
        stored.tid
        for stored in db.table("Proposal").scan()
        if stored.values[0] == "B"
    ]
    assert len(b_tids) == 2
    assert duplicated[0].lineage == lineage_or(*(var(tid) for tid in b_tids))


def test_inner_equi_join(db):
    assert_equivalent(
        db,
        "SELECT p.Company, c.Income FROM Proposal AS p "
        "JOIN CompanyInfo AS c ON p.Company = c.Company",
    )


def test_left_join_null_padding(db):
    native, columnar = assert_equivalent(
        db,
        "SELECT p.Company, c.Income FROM Proposal AS p "
        "LEFT JOIN CompanyInfo AS c ON p.Company = c.Company",
    )
    unmatched = [row for row in columnar.rows if row.values[1] is None]
    assert unmatched, "expected at least one unmatched left row"


def test_non_equi_join(db):
    assert_equivalent(
        db,
        "SELECT p.Company, c.Company FROM Proposal AS p "
        "JOIN CompanyInfo AS c ON p.Funding < c.Income",
    )


def test_semi_join_in_subquery(db):
    assert_equivalent(
        db,
        "SELECT Company FROM Proposal WHERE Company IN "
        "(SELECT Company FROM CompanyInfo)",
    )


def test_semi_join_not_in_subquery(db):
    assert_equivalent(
        db,
        "SELECT Company FROM Proposal WHERE Company NOT IN "
        "(SELECT Company FROM CompanyInfo)",
    )


def test_union_deduplicates(db):
    assert_equivalent(
        db,
        "SELECT Company FROM Proposal UNION "
        "SELECT Company FROM CompanyInfo",
    )


def test_union_all_keeps_duplicates(db):
    assert_equivalent(
        db,
        "SELECT Company FROM Proposal UNION ALL "
        "SELECT Company FROM CompanyInfo",
    )


def test_intersect(db):
    assert_equivalent(
        db,
        "SELECT Company FROM Proposal INTERSECT "
        "SELECT Company FROM CompanyInfo",
    )


def test_except(db):
    assert_equivalent(
        db,
        "SELECT Company FROM Proposal EXCEPT "
        "SELECT Company FROM CompanyInfo",
    )


def test_limit_and_offset(db):
    assert_equivalent(db, "SELECT Company FROM Proposal LIMIT 2 OFFSET 1")


def test_projection_expressions(db):
    assert_equivalent(
        db,
        "SELECT Company, Funding * 2 + 1, Funding / 2 FROM Proposal",
    )


def test_filter_error_matches_native():
    db = Database("err")
    t = db.create_table("t", Schema.of(("x", INTEGER)))
    for x in (2, 0, 5):
        t.insert([x], confidence=0.5)
    sql = "SELECT x FROM t WHERE 10 / x > 1"
    with pytest.raises(ExecutionError) as native_error:
        run_sql(db, sql, engine="native")
    with pytest.raises(ExecutionError) as columnar_error:
        run_sql(db, sql, engine="columnar")
    assert str(native_error.value) == str(columnar_error.value)


def test_guarded_filter_short_circuits_on_both_engines():
    db = Database("guard")
    t = db.create_table("t", Schema.of(("x", INTEGER)))
    for x in (2, 0, 5):
        t.insert([x], confidence=0.5)
    sql = "SELECT x FROM t WHERE x <> 0 AND 10 / x > 1"
    native = run_sql(db, sql, engine="native")
    columnar = run_sql(db, sql, engine="columnar")
    assert [row.values for row in native.rows] == [
        row.values for row in columnar.rows
    ] == [(2,), (5,)]


def _zero_divisor_table():
    db = Database("err")
    t = db.create_table("t", Schema.of(("k", TEXT), ("x", INTEGER)))
    for k, x in (("a", 2), ("b", 0), ("a", 5)):
        t.insert([k, x], confidence=0.5)
    return db, t


def _assert_same_error(run):
    with pytest.raises(ExecutionError) as native_error:
        run("native")
    with pytest.raises(ExecutionError) as columnar_error:
        run("columnar")
    assert str(native_error.value) == str(columnar_error.value)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT SUM(10 / x) FROM t",
        "SELECT k, MIN(10 / x) FROM t GROUP BY k",
        "SELECT 10 / x, COUNT(*) FROM t GROUP BY 10 / x",
    ],
)
def test_aggregate_error_matches_native(sql):
    db, _ = _zero_divisor_table()
    _assert_same_error(lambda engine: run_sql(db, sql, engine=engine))


def test_projection_reports_the_first_failing_row_like_native():
    """Row 1 fails only the second item, row 2 only the first: native
    (row-major) reports the second item; a column-major batch would not."""
    db = Database("err")
    t = db.create_table("t", Schema.of(("v", INTEGER), ("w", INTEGER)))
    t.insert([1, 0], confidence=0.5)
    t.insert([0, 1], confidence=0.5)
    _assert_same_error(
        lambda engine: run_sql(db, "SELECT 10 / v, 10 / w FROM t", engine=engine)
    )


def test_sort_key_error_matches_native():
    _, table = _zero_divisor_table()
    plan = Sort(
        Scan(table),
        [SortKey(col("t.k")), SortKey(Arithmetic("/", lit(10), col("t.x")))],
    )
    _assert_same_error(lambda engine: pick_engine(plan, engine).execute())


def test_global_aggregate_over_empty_input_is_one_certain_row(db):
    native, columnar = assert_equivalent(
        db, "SELECT COUNT(*), SUM(Funding) FROM Proposal WHERE Funding > 99"
    )
    assert [row.values for row in columnar.rows] == [(0, None)]
    assert columnar.rows[0].lineage == TOP


def test_grouped_aggregate_over_empty_input_is_empty(db):
    _, columnar = assert_equivalent(
        db,
        "SELECT Company, COUNT(*) FROM Proposal WHERE Funding > 99 "
        "GROUP BY Company",
    )
    assert columnar.rows == []


def test_sort_keeps_lineage_with_its_row(db):
    _, columnar = assert_equivalent(
        db, "SELECT Company, Funding FROM Proposal ORDER BY Funding DESC, Company"
    )
    by_tid = {
        var(stored.tid): stored.values
        for stored in db.table("Proposal").scan()
    }
    assert [by_tid[row.lineage][0] for row in columnar.rows] == [
        row.values[0] for row in columnar.rows
    ]


# -- equi-join / IN build side (differential vs native) ---------------------
#
# The equi-join hashes whichever input is shorter and streams the other past
# it; ``IN`` groups subquery rows and ORs a value's lineage on first probe.
# Every case below runs with the short table on the left and on the right.


def _two_tables(short, long, short_key=INTEGER, long_key=INTEGER):
    """``s(k, x)`` and ``b(k, x)`` from ``(key, x)`` pairs, ``len(s) < len(b)``."""
    assert len(short) < len(long)
    db = Database("edge")
    for name, key_type, rows in (("s", short_key, short), ("b", long_key, long)):
        table = db.create_table(name, Schema.of(("k", key_type), ("x", INTEGER)))
        for i, row in enumerate(rows):
            table.insert(list(row), confidence=round(0.15 + 0.7 * i / len(rows), 3))
    return db


BOTH_ORDERS = pytest.mark.parametrize("l, r", [("s", "b"), ("b", "s")])


@BOTH_ORDERS
@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
def test_join_duplicate_and_null_keys_on_both_sides(l, r, kind):
    db = _two_tables(
        [(1, 10), (None, 11), (1, 12), (2, 13), (7, 14)],
        [(2, 20), (1, 21), (None, 22), (3, 23), (1, 24), (2, 25), (None, 26)],
    )
    _, columnar = assert_equivalent(
        db, f"SELECT {l}.k, {l}.x, {r}.x FROM {l} {kind} {r} ON {l}.k = {r}.k"
    )
    joined = [row.values for row in columnar.rows if row.values[2] is not None]
    assert all(values[0] is not None for values in joined)
    assert len(joined) == 2 * 2 + 2  # key 1: 2 x 2, key 2: 1 x 2


@BOTH_ORDERS
def test_join_hash_equal_keys_of_different_types(l, r):
    """``1`` and ``1.0`` share a bucket whichever side is hashed.  (``True``
    cannot meet them: the binder refuses INTEGER = BOOLEAN.)"""
    db = _two_tables(
        [(1, 10), (2, 11)],
        [(1.0, 20), (2.5, 21), (2.0, 22), (1.0, 23)],
        long_key=REAL,
    )
    _, columnar = assert_equivalent(
        db, f"SELECT {l}.x, {r}.x FROM {l} JOIN {r} ON {l}.k = {r}.k"
    )
    assert len(columnar.rows) == 3


@BOTH_ORDERS
@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
def test_join_nan_key_hits_the_bucket_but_fails_the_recheck(l, r, kind):
    """The same ``nan`` object on both sides is found by dict identity;
    ``nan = nan`` is false, so the per-candidate re-check must drop it."""
    nan = float("nan")
    db = _two_tables(
        [(nan, 10), (1.5, 11)],
        [(1.5, 20), (nan, 21), (nan, 22)],
        short_key=REAL,
        long_key=REAL,
    )
    assert db.table("b").column_data()[0][0][1] is nan  # stored as given
    _, columnar = assert_equivalent(
        db, f"SELECT {l}.x, {r}.x FROM {l} {kind} {r} ON {l}.k = {r}.k"
    )
    matched = [row.values for row in columnar.rows if None not in row.values]
    assert sorted(map(sorted, matched)) == [[11, 20]]


@BOTH_ORDERS
def test_left_join_unmatched_partly_matched_and_certainly_matched(l, r):
    """Key 5 has no partner (padded, own lineage), key 1 has uncertain
    partners (padded with ``NOT``), and a partner that is certain (TOP
    lineage: a global aggregate) leaves no padded row at all."""
    db = _two_tables(
        [(1, 10), (5, 11), (0, 12)],
        [(1, 20), (1, 21), (3, 22), (4, 23)],
    )
    _, columnar = assert_equivalent(
        db, f"SELECT {l}.k, {l}.x, {r}.x FROM {l} LEFT JOIN {r} ON {l}.k = {r}.k"
    )
    assert any(row.values[2] is None for row in columnar.rows)
    _, certain = assert_equivalent(
        db,
        f"SELECT {l}.k, z.c FROM {l} LEFT JOIN "
        f"(SELECT COUNT(*) AS c FROM {r} WHERE x > 99) AS z ON {l}.k = z.c",
    )
    zero = [row for row in certain.rows if row.values[0] == 0]
    assert [row.values for row in zero] == [(0, 0)] * len(zero)  # no padding


@BOTH_ORDERS
@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
def test_join_with_an_empty_side(l, r, kind):
    db = _two_tables([], [(1, 20), (None, 21)])
    _, columnar = assert_equivalent(
        db, f"SELECT {l}.k, {r}.x FROM {l} {kind} {r} ON {l}.k = {r}.k"
    )
    assert len(columnar.rows) == (2 if (l, kind) == ("b", "LEFT JOIN") else 0)


@BOTH_ORDERS
@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
def test_join_condition_that_raises_on_a_later_candidate(l, r, kind):
    """The third candidate of key 1 divides by zero, the first of key 2
    takes a modulo by zero: both engines stop at the same one."""
    db = _two_tables(
        [(1, 3), (2, 0)],
        [(1, 2), (2, 1), (1, 5), (1, 0), (2, 0)],
    )
    for condition in (
        f"{l}.k = {r}.k AND 10 / {r}.x > 1 AND 7 % {l}.x >= 0",
        f"{l}.k = {r}.k AND 10 / ({l}.x - {r}.x - 1) > 0",
    ):
        sql = f"SELECT {l}.x, {r}.x FROM {l} {kind} {r} ON {condition}"
        _assert_same_error(lambda engine: run_sql(db, sql, engine=engine))


@BOTH_ORDERS
@pytest.mark.parametrize("negation", ["", "NOT "])
def test_in_subquery_duplicates_nulls_and_unprobed_values(l, r, negation):
    db = _two_tables(
        [(1, 10), (None, 11), (4, 12), (1, 13)],
        [(1, 20), (9, 21), (1, 22), (8, 23), (None, 24), (4, 25), (9, 26)],
    )
    for subquery in (
        f"SELECT k FROM {r}",  # NULLs present: NOT IN keeps nothing
        f"SELECT k FROM {r} WHERE k IS NOT NULL",
        f"SELECT k FROM {r} WHERE x > 99",  # empty
    ):
        assert_equivalent(
            db, f"SELECT k, x FROM {l} WHERE k {negation}IN ({subquery})"
        )


# -- batch confidence evaluation --------------------------------------------


def test_evaluate_many_matches_per_circuit_evaluation():
    pool = CircuitPool()
    formulas = [
        var(("t", 1)),
        lineage_and(var(("t", 1)), var(("t", 2))),
        lineage_or(var(("t", 2)), lineage_not(var(("t", 3)))),
        lineage_and(
            lineage_or(var(("t", 1)), var(("t", 4))),
            lineage_not(var(("t", 2))),
        ),
    ]
    circuits = [pool.compile(formula) for formula in formulas]
    assignment = {("t", 1): 0.2, ("t", 2): 0.5, ("t", 3): 0.7, ("t", 4): 0.9}
    batch = pool.evaluate_many(circuits, assignment)
    assert batch == [circuit.evaluate(assignment) for circuit in circuits]


def test_evaluate_many_empty():
    pool = CircuitPool()
    assert pool.evaluate_many([], {}) == []


def test_merged_order_rejects_foreign_circuits():
    pool_a, pool_b = CircuitPool(), CircuitPool()
    circuit_a = pool_a.compile(var(("t", 1)))
    circuit_b = pool_b.compile(var(("t", 1)))
    with raises_code(ReproError, "LineageError"):
        pool_a.merged_order([circuit_a, circuit_b])


def test_result_set_confidences_use_batch_path(db):
    result = run_sql(db, "SELECT Company FROM Proposal", engine="columnar")
    assignment = {
        stored.tid: stored.confidence
        for stored in db.table("Proposal").scan()
    }
    assert result.confidences(db) == [
        row.confidence(assignment) for row in result.rows
    ]
