"""A deterministic guard on what the columnar read path materialises.

Timings drift; counts repeat exactly.  A two-conjunct filter reads the
second conjunct's column only at the rows the first kept and every other
column once, in the one final gather; at the commit before this guard
the ``AND`` re-gathered all four columns and called a comparison closure
per row.  An inner equi-join of scans
gathers columns and builds no value tuple and no ``Var`` at all (its
lineage stays deferred); a LEFT join builds them for the rows that have a
partner — not for its inputs — an ``IN`` builds no lineage until its rows
are read, and then for the subquery values that are probed, and compiling
a result batch of ``And(var, var)`` rows neither clusters children nor
walks a cone per row.  At the commit before this guard the first join
below built 10 050 / 100 050 ``Var``s and as many value tuples, and until
the join kept lineage deferred 120 of each; ``IN`` built one ``Var`` per
subquery row, and until a probed value became a group 120 (``NOT IN``
125) before anyone read a row.
"""

import pytest

from repro.algebra import expressions
from repro.algebra.rows import AnnotatedTuple, ResultSet
from repro.engines.columnar.batch import ColumnBatch
from repro.lineage import circuit as circuit_module
from repro.lineage.circuit import CompiledCircuit
from repro.lineage.formula import And, Var, lineage_and, lineage_or, var
from repro.lineage import probability
from repro.sql import run_sql
from repro.storage import Database, INTEGER, Schema, TEXT, TupleId
from repro.storage.table import Table
from repro.storage.tuples import ColumnView
from tests.oracle import possible_worlds

FILTERED = 50  # rows of ``small`` that pass ``flag = 1``
MATCHES = 75  # 30 filtered keys have two partners, 15 one, 5 none


def _database(big_rows: int) -> Database:
    """``small(k, flag)``: 1 000 rows, keys 0–49 flagged.  ``big(k, x)``:
    *big_rows* rows; the partners of the flagged keys come first, every
    other key (and the odd NULL) matches nothing flagged."""
    db = Database("counts")
    small = db.create_table("small", Schema.of(("k", INTEGER), ("flag", INTEGER)))
    for k in range(1000):
        small.insert([k, int(k < FILTERED)], confidence=0.5)
    big = db.create_table("big", Schema.of(("k", INTEGER), ("x", INTEGER)))
    partners = [k for k in range(45) for _ in range(2 if k < 30 else 1)]
    assert len(partners) == MATCHES
    for j in range(big_rows):
        if j < MATCHES:
            key = partners[j]
        else:
            key = None if j % 97 == 0 else 1000 + j % 5000
        big.insert([key, j], confidence=0.5)
    return db


@pytest.mark.parametrize(
    "sql, materialised",
    [
        # Inner equi-joins, either operand order: index pairs, nothing else.
        (
            "SELECT s.k, b.x FROM small s JOIN big b ON s.k = b.k "
            "WHERE s.flag = 1",
            0,
        ),
        (
            "SELECT s.k, b.x FROM big b JOIN small s ON b.k = s.k "
            "WHERE s.flag = 1",
            0,
        ),
        # LEFT keeps the 5 partnerless rows too: 50 + 75.
        (
            "SELECT s.k, b.x FROM (SELECT k FROM small WHERE flag = 1) AS s "
            "LEFT JOIN big b ON s.k = b.k",
            FILTERED + MATCHES,
        ),
    ],
)
def test_join_materialises_matches_not_inputs(
    monkeypatch, count_calls, sql, materialised
):
    counts = {}
    for big_rows in (10_000, 100_000):
        db = _database(big_rows)
        variables = count_calls(Var, "__init__")
        one_row = count_calls(ColumnBatch, "row")
        bulk_rows = [0]
        original_rows = ColumnBatch.rows

        def counted_rows(batch):
            rows = original_rows(batch)
            bulk_rows[0] += len(rows)
            return rows

        monkeypatch.setattr(ColumnBatch, "rows", counted_rows)
        result = run_sql(db, sql, engine="columnar")
        monkeypatch.undo()
        assert sum(row.values[1] is not None for row in result.rows) == MATCHES
        counts[big_rows] = (variables[0], one_row[0] + bulk_rows[0])
    # ``Var``s and value tuples built, whatever the size of the big input.
    assert counts[10_000] == counts[100_000] == (materialised, materialised)
    assert materialised <= 2 * (MATCHES + FILTERED)


@pytest.mark.parametrize("negation, kept", [("", 45), ("NOT ", FILTERED)])
def test_in_subquery_materialises_probed_values_only(
    monkeypatch, count_calls, negation, kept
):
    """50 probes into a subquery of thousands of rows: no ``Var`` for the
    result and its confidences; reading its rows builds one per kept probe
    row plus one per subquery row of a value that was probed."""
    sql = (
        f"SELECT k FROM small WHERE flag = 1 AND k {negation}IN "
        "(SELECT k FROM big WHERE k IS NOT NULL)"
    )
    counts = {}
    for big_rows in (5_000, 20_000):
        db = _database(big_rows)
        variables = count_calls(Var, "__init__")
        result = run_sql(db, sql, engine="columnar")
        assert len(result) == len(result.confidences(db)) == kept
        unread = variables[0]
        assert len(result.rows) == kept
        counts[big_rows] = (unread, variables[0])
        monkeypatch.undo()
    assert counts[5_000] == counts[20_000] == (0, kept + MATCHES)


class _LoggedColumn(list):
    """A table column that logs every index read from it; reading it whole
    (iterating it) fails the test."""

    def __init__(self, values, log: list) -> None:
        super().__init__(values)
        self.log = log

    def __getitem__(self, index):
        self.log.append(index)
        return super().__getitem__(index)

    def __iter__(self):
        raise AssertionError("a column was read whole")


def test_two_conjunct_filter_is_one_selection_vector(monkeypatch, count_calls):
    size = 10_000
    db = Database("selection")
    names = ("a", "b", "c", "d")
    db.create_table("wide", Schema.of(*((name, INTEGER) for name in names)))
    db.table("wide").insert_rows(
        [[i % 10, i % 7, i, -i] for i in range(size)], confidence=0.5
    )
    reads = {name: [] for name in names}
    column_data = Table.column_data

    def logged(table):
        columns, tids = column_data(table)
        logs = (reads[name] for name in names)
        return [_LoggedColumn(column, log) for column, log in zip(columns, logs)], tids

    monkeypatch.setattr(Table, "column_data", logged)
    compared = [0]
    for op, operate in list(expressions._COMPARE_OPS.items()):

        def counted(a, b, operate=operate):
            compared[0] += 1
            return operate(a, b)

        monkeypatch.setitem(expressions._COMPARE_OPS, op, counted)
    variables = count_calls(Var, "__init__")

    result = run_sql(db, "SELECT * FROM wide WHERE a = 3 AND 2 > b", engine="columnar")

    first = [i for i in range(size) if i % 10 == 3]
    kept = [i for i in first if i % 7 < 2]
    assert len(result) == len(kept) == 285
    assert compared[0] == 0  # no comparison closure per row
    assert reads["a"] == list(range(size)) + kept  # conjunct 1, the gather
    assert reads["b"] == first + kept  # conjunct 2 at conjunct 1's rows
    assert reads["c"] == reads["d"] == kept  # the one final gather only
    assert variables[0] == 0


def test_a_filtered_join_reads_each_column_through_its_selection(monkeypatch):
    """Both join inputs filtered, one column of each projected (the shape
    of the e2e ``ask.join-filtered``): a filter column is read whole, by
    its filter; a key column at its filter's kept rows, once, by the
    hashing (the condition re-check reads what it gathered); a projected
    column at the matched rows only; any other column at no row.  At the
    commit before this guard each filter gathered every column of its
    input and the join every column of both at every pair."""
    db = Database("filtered-join")
    db.create_table(
        "l", Schema.of(("k", INTEGER), ("f", INTEGER), ("a", INTEGER), ("u", INTEGER))
    ).insert_rows([[i % 400, i % 3, i, -i] for i in range(1_200)], confidence=0.5)
    db.create_table(
        "r", Schema.of(("k", INTEGER), ("g", INTEGER), ("b", INTEGER), ("v", INTEGER))
    ).insert_rows([[j % 500, j % 5, j, -j] for j in range(2_000)], confidence=0.5)
    names = ("k", "f", "g", "a", "b", "u", "v")
    reads = {(table, name): [] for table in "lr" for name in names}
    column_data = Table.column_data

    def logged(table):
        columns, tids = column_data(table)
        return ColumnView(
            _LoggedColumn(column, reads[table.name, name])
            for column, name in zip(columns, table.schema.names)
        ), tids

    monkeypatch.setattr(Table, "column_data", logged)
    sql = (
        "SELECT l.a, r.b FROM l JOIN r ON l.k = r.k "
        "WHERE l.f = 1 AND r.g > 2"
    )
    result = run_sql(db, sql, engine="columnar")
    monkeypatch.undo()
    assert result.values() == run_sql(db, sql, engine="native").values()

    kept_l = [i for i in range(1_200) if i % 3 == 1]
    kept_r = [j for j in range(2_000) if j % 5 > 2]
    by_key = {}
    for j in kept_r:
        by_key.setdefault(j % 500, []).append(j)
    pairs = [(i, j) for i in kept_l for j in by_key.get(i % 400, ())]
    assert len(result) == len(pairs) == 640
    assert reads["l", "f"] == list(range(1_200))  # the filters
    assert reads["r", "g"] == list(range(2_000))
    assert reads["l", "k"] == kept_l  # the hashing, once
    assert reads["r", "k"] == kept_r
    assert reads["l", "a"] == [i for i, _ in pairs]  # the projection
    assert reads["r", "b"] == [j for _, j in pairs]
    assert reads["l", "u"] == reads["r", "v"] == []


@pytest.mark.parametrize(
    "condition, second",
    [
        ("b LIKE 'x1%'", lambda first, b: first),
        # OR's right side reads ``b`` again, at the rows its left left
        # not True.
        (
            "(b LIKE 'x1%' OR b LIKE 'x2%')",
            lambda first, b: first + [i for i in first if not b[i].startswith("x1")],
        ),
    ],
)
def test_a_conjunct_without_own_selection_reads_only_its_columns(
    monkeypatch, condition, second
):
    """A conjunct with no own selection (``LIKE``, an ``OR`` of them)
    reads its own column at the rows the conjunct before it kept, and an
    unreferenced column at no row.  At the commit before this guard the
    default selection copied every column at those rows, and ``OR``
    gathered every column at the rows its left left open."""
    size = 1_000
    db = Database("default-selection")
    db.create_table("t", Schema.of(("a", INTEGER), ("b", TEXT), ("c", INTEGER)))
    db.table("t").insert_rows(
        [[i % 10, f"x{i % 13}", i] for i in range(size)], confidence=0.5
    )
    reads = {name: [] for name in "abc"}
    column_data = Table.column_data

    def logged(table):
        columns, tids = column_data(table)
        return ColumnView(
            _LoggedColumn(column, reads[name])
            for column, name in zip(columns, "abc")
        ), tids

    monkeypatch.setattr(Table, "column_data", logged)
    sql = f"SELECT a FROM t WHERE a = 1 AND {condition}"
    result = run_sql(db, sql, engine="columnar")
    monkeypatch.undo()
    assert result.values() == run_sql(db, sql, engine="native").values()

    b = [f"x{i % 13}" for i in range(size)]
    first = [i for i in range(size) if i % 10 == 1]
    assert 0 < len(result) < len(first)
    assert reads["a"][:size] == list(range(size))  # conjunct 1
    assert reads["b"] == second(first, b)
    assert reads["c"] == []


def _join_rows(count: int) -> ResultSet:
    """*count* rows shaped like a join's: ``And(left var, right var)``,
    each left variable shared by two rows."""
    rows = [
        AnnotatedTuple(
            (i,), lineage_and(var(TupleId("l", i // 2)), var(TupleId("r", i)))
        )
        for i in range(count)
    ]
    schema = Schema.of(("i", INTEGER))
    return ResultSet(schema, rows)


def test_join_rows_compile_without_clustering_or_cones(count_calls):
    result = _join_rows(400)
    assert all(type(row.lineage) is And for row in result.rows)
    probabilities = {
        tid: 0.05 + 0.9 * (tid.ordinal % 17) / 17
        for row in result.rows
        for tid in row.lineage.variables
    }
    # Each row in a pool of its own, before anything is counted.
    expected = [probability(row.lineage, probabilities) for row in result.rows]
    clustered = count_calls(circuit_module, "_independent_clusters")
    cones = count_calls(CompiledCircuit, "_find_cone")

    confidences = result.confidences(probabilities)

    assert clustered[0] == 0 and cones[0] == 0
    # 200 + 400 VAR nodes and one MUL per row — what clustering built.
    assert len(result.circuit_pool) == 200 + 400 + 400
    assert result.circuit_stats()["shared_hit_rate"] == 0.1667  # 200 / 1 200
    assert confidences == expected
    # The solvers' path still gets a cone, on demand.
    circuit = result.compiled_circuits()[3]
    assert circuit.order == (5, 8, 9) and cones[0] == 1
    assert circuit.support == (TupleId("l", 1), TupleId("r", 3))
    assert circuit.evaluate(probabilities) == confidences[3]


def test_shared_variable_rows_still_cluster_and_expand(count_calls):
    """``(a ∧ b) ∨ (a ∧ c)`` shares ``a`` across children: clustering finds
    one entangled cluster and Shannon-expands it, exactly as before."""
    a, b, c, d = (var(TupleId("t", i)) for i in range(4))
    entangled = lineage_or(lineage_and(a, b), lineage_and(a, c))
    mixed = lineage_and(d, lineage_or(lineage_and(a, b), lineage_and(a, c)))
    result = ResultSet(
        Schema.of(("i", INTEGER)),
        [
            AnnotatedTuple((0,), entangled),
            AnnotatedTuple((1,), lineage_and(b, d)),
            AnnotatedTuple((2,), mixed),
        ],
    )
    probabilities = {TupleId("t", i): p for i, p in enumerate((0.3, 0.6, 0.7, 0.9))}
    clustered = count_calls(circuit_module, "_independent_clusters")

    confidences = result.confidences(probabilities)

    assert clustered[0] >= 1
    assert confidences == [
        probability(row.lineage, probabilities) for row in result.rows
    ]
    for row, confidence in zip(result.rows, confidences):
        assert abs(confidence - possible_worlds(row.lineage, probabilities)) < 1e-12
