"""A column's key map is a fact of one table version.

An inner or LEFT equi-join whose left input is the shorter probes the
right's key map when the right is a base scan, or filters over one: the
table's column view maps each non-NULL value of a column to its
ascending row positions (``ColumnView.key_map``), built on the first ask
and kept.  The map must never outlive the version it describes: a write
that inserts, moves, NULLs or deletes a join key builds a new view, on
the live table and on each MVCC snapshot, while a snapshot pinned before
the write keeps reading its own.  And a right input whose rows are not
the table's in ascending order — a sort's or limit's output — must not
be probed at all: its positions are not the map's.
"""

from __future__ import annotations

import re

import pytest

from repro.algebra import col, lit
from repro.algebra.expressions import Comparison
from repro.algebra.plan import Filter, Join, Limit, Scan, Sort, SortKey
from repro.engines import pick_engine
from repro.server import MVCCDatabase
from repro.sql import execute_sql, run_sql
from repro.storage import Database, INTEGER, REAL, Schema, TEXT

ASKS = (
    # A bare scanned right, inner and LEFT.
    "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k",
    "SELECT t.k, t.s, u.w FROM t LEFT JOIN u ON t.k = u.k",
    # A filtered scanned right.
    "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k WHERE u.w > 30",
    # One whose left keys' whole-table buckets outnumber its kept rows:
    # its kept keys are streamed, not probed.
    "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k WHERE t.s < 'c' AND u.w > 60",
    # A right reordered, or cut, in a derived table.
    "SELECT t.k, o.w FROM t JOIN (SELECT k, w FROM u ORDER BY w DESC LIMIT 9) AS o "
    "ON t.k = o.k",
    "SELECT t.k, o.w FROM t LEFT JOIN (SELECT * FROM u ORDER BY w DESC) AS o "
    "ON t.k = o.k",
    # A self-join, its left filtered.
    "SELECT a.k, b.s FROM t a JOIN t b ON a.k = b.k WHERE a.s <> 'c'",
    "SELECT a.k, b.s FROM t a LEFT JOIN t b ON a.k = b.k WHERE a.s <> 'c'",
    # INTEGER keys against REAL ones: ``1 = 1.0``.
    "SELECT t.k, v.x FROM t JOIN v ON t.k = v.k",
    "SELECT t.k, v.k, v.x FROM t LEFT JOIN v ON t.k = v.k",
    # A right shorter than the left: hashed, not probed.
    "SELECT u.w, t.s FROM u JOIN t ON u.k = t.k",
    "SELECT u.w, t.s FROM u LEFT JOIN t ON u.k = t.k",
)


def _on(left: str, right: str) -> Comparison:
    return Comparison("=", col(f"{left}.k"), col(f"{right}.k"))


def _by_w_descending(db):
    return Sort(Scan(db.table("u")), [SortKey(col("u.w"), descending=True)])


#: Plans no SQL text reaches — a derived table projects — with a sort or
#: limit straight over the scanned right, and a LEFT join of a filtered one.
PLANS = (
    lambda db: Join(Scan(db.table("t")), _by_w_descending(db), _on("t", "u")),
    lambda db: Join(
        Scan(db.table("t")), Limit(_by_w_descending(db), 9), _on("t", "u"), "left"
    ),
    lambda db: Join(Scan(db.table("t")), Limit(Scan(db.table("u")), 8, 2), _on("t", "u")),
    lambda db: Join(
        Scan(db.table("t")),
        Filter(Scan(db.table("u")), Comparison(">", col("u.w"), lit(30))),
        _on("t", "u"),
        "left",
    ),
)

#: Each moves join keys: a fresh partner, a key that moves from one value
#: to another, to NULL and back, deletes on both sides, a REAL key.
WRITES = (
    "INSERT INTO u VALUES (3, 130) WITH CONFIDENCE 0.6",
    "UPDATE u SET k = 5 WHERE w = 0",
    "UPDATE u SET k = NULL WHERE w = 10",
    "UPDATE u SET k = 2 WHERE w = 30",
    "DELETE FROM u WHERE k = 1",
    "UPDATE t SET k = 4 WHERE s = 'c'",
    "UPDATE t SET k = NULL WHERE k = 2",
    "UPDATE t SET k = 1 WHERE k IS NULL",
    "INSERT INTO v VALUES (4.0, 99) WITH CONFIDENCE 0.9",
    "DELETE FROM t WHERE k = 4",
)


def _db() -> Database:
    db = Database("keys")
    t = db.create_table("t", Schema.of(("k", INTEGER), ("s", TEXT)))
    t.insert_rows(
        [[1, "a"], [2, "b"], [3, "c"], [None, "d"], [2, "e"]],
        confidence=[0.3, 0.4, 0.5, 0.6, 0.7],
    )
    u = db.create_table("u", Schema.of(("k", INTEGER), ("w", INTEGER)))
    keys = [1, 2, 1, None, 4, 2, 5, 1, None, 3, 6, 2]
    u.insert_rows(
        [[k, 10 * j] for j, k in enumerate(keys)],
        confidence=[0.2 + j / 20 for j in range(len(keys))],
    )
    v = db.create_table("v", Schema.of(("k", REAL), ("x", INTEGER)))
    v.insert_rows(
        [[k, j] for j, k in enumerate((1.0, 2.5, None, 1.0, 3.0, 7.0, 2.0, 0.5))],
        confidence=0.8,
    )
    return db


def _answer(result, db) -> tuple:
    return result.values(), [c.hex() for c in result.confidences(db)]


def _agree(db) -> list:
    """Each ask's and plan's rows, in order, and confidences (as hex):
    the same on both engines."""
    answers = []
    for sql in ASKS:
        columnar = _answer(run_sql(db, sql, engine="columnar"), db)
        assert columnar == _answer(run_sql(db, sql, engine="native"), db), sql
        answers.append(columnar)
    for build in PLANS:
        plan = build(db)
        columnar = _answer(pick_engine(plan, "columnar").execute(), db)
        assert columnar == _answer(pick_engine(plan, "native").execute(), db)
        answers.append(columnar)
    return answers


def _maps(table) -> dict:
    """The key maps *table*'s current view has built, by column."""
    return table.column_data()[0]._keys


def test_the_shapes_probe_and_agree_with_the_native_engine():
    db = _db()
    _agree(db)
    # The scanned rights probed: ``u``'s and ``v``'s key column has a
    # map, and so has ``t``'s, the self-join's right.
    for name in ("t", "u", "v"):
        assert set(_maps(db.table(name))) == {0}
    joined = run_sql(db, "SELECT t.k, v.x FROM t JOIN v ON t.k = v.k").values()
    assert joined == [(1, 0), (1, 3), (2, 6), (3, 4), (2, 6)]


def test_each_write_is_seen_on_the_live_table():
    db = _db()
    answers = [_agree(db)]
    for sql in WRITES:
        table = db.table(re.search(r"(?:INTO|UPDATE|FROM) (\w)", sql)[1])
        built = _maps(table)
        execute_sql(db, sql)
        assert _maps(table) is not built and not _maps(table)  # a new view
        answers.append(_agree(db))
    assert all(a != b for a, b in zip(answers, answers[1:]))


@pytest.mark.parametrize("pin", ["before", "after"])
def test_a_pinned_snapshot_keeps_the_map_of_its_own_version(pin):
    db = _db()
    mvcc = MVCCDatabase(db)
    pinned = []
    for sql in WRITES:
        if pin == "before":
            snapshot = mvcc.snapshot()
            pinned.append((snapshot, _agree(snapshot.db)))
        mvcc.commit(lambda db: execute_sql(db, sql))
        if pin == "after":
            snapshot = mvcc.snapshot()
            pinned.append((snapshot, _agree(snapshot.db)))
    live = _agree(db)
    for snapshot, answers in pinned:
        maps = {name: _maps(snapshot.db.table(name)) for name in "tuv"}
        assert _agree(snapshot.db) == answers  # still the version it pinned
        assert all(
            _maps(snapshot.db.table(name)) is maps[name] for name in "tuv"
        )
    assert pinned[-1][1] == live if pin == "after" else pinned[0][1] != live
    for snapshot, _answers in pinned:
        snapshot.release()
