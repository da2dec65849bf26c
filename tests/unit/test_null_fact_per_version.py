"""Whether a column holds a NULL is a fact of one table version.

A filter that compares a column with a literal runs as a plain selection
only over a column without a NULL, and a table's column view records, on
first ask, whether each column has one (``ColumnView.holds_null``).  The
fact must never outlive the version it describes: a write that adds a
NULL to a filtered column — or removes the last one — builds a new view,
on the live table and on each MVCC snapshot, while a snapshot pinned
before the write keeps reading its own.  ``s <> 'b'`` is the sensitive
comparison: over a stale "no NULL" it would keep a row whose ``s`` is
NULL, which SQL does not (``NULL <> 'b'`` is NULL).
"""

from __future__ import annotations

import pytest

from repro.server import MVCCDatabase
from repro.sql import execute_sql, run_sql
from repro.storage import Database, INTEGER, REAL, Schema, TEXT
from repro.storage import table as table_module
from repro.storage.tuples import ColumnView

ASKS = (
    "SELECT k FROM t WHERE s <> 'b'",
    "SELECT k, s FROM t WHERE s <> 'b' AND x > 0.25",
    "SELECT k, x FROM t WHERE x > 0.25",
    "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k WHERE t.s <> 'b'",
)

#: (adds a NULL to ``s`` and ``x``, removes it again)
WRITES = {
    "insert": (
        "INSERT INTO t VALUES (99, NULL, NULL) WITH CONFIDENCE 0.7",
        "DELETE FROM t WHERE k = 99",
    ),
    "update": (
        "UPDATE t SET s = NULL, x = NULL WHERE k = 3",
        "UPDATE t SET s = 'b', x = 0.75 WHERE k = 3",
    ),
}


def _db() -> Database:
    db = Database("nulls")
    t = db.create_table("t", Schema.of(("k", INTEGER), ("s", TEXT), ("x", REAL)))
    t.insert_rows(
        [[k, "ab"[k % 2], (k % 4) / 4] for k in range(12)],
        confidence=[0.3 + k / 20 for k in range(12)],
    )
    u = db.create_table("u", Schema.of(("k", INTEGER), ("w", INTEGER)))
    u.insert_rows([[k, 10 * k] for k in (3, 5, 99)], confidence=0.8)
    return db


def _answers(db, engine: str) -> list:
    """Each ask's rows and confidences (as hex) on *engine*."""
    answers = []
    for sql in ASKS:
        result = run_sql(db, sql, engine=engine)
        answers.append(
            (result.values(), [c.hex() for c in result.confidences(db)])
        )
    return answers


def _agree(db) -> list:
    columnar = _answers(db, "columnar")
    assert columnar == _answers(db, "native")
    # ``NULL <> 'b'`` and ``NULL > 0.25`` are not true: no NULL row passes.
    for rows, _confidences in columnar:
        assert all(None not in row for row in rows)
    return columnar


def _null_keys(db) -> list:
    return run_sql(db, "SELECT k FROM t WHERE s IS NULL").values()


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_write_that_adds_or_removes_a_null_is_seen_on_the_live_table(write):
    db = _db()
    adds, removes = WRITES[write]
    before = _agree(db)
    execute_sql(db, adds)
    assert _null_keys(db) == [(99,) if write == "insert" else (3,)]
    _agree(db)
    execute_sql(db, removes)
    assert _null_keys(db) == []
    assert _agree(db) == before


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_pinned_snapshot_keeps_the_fact_of_its_own_version(write):
    mvcc = MVCCDatabase(_db())
    adds, removes = WRITES[write]
    old = mvcc.snapshot()
    before = _agree(old.db)  # the old version's facts are recorded first
    mvcc.commit(lambda db: execute_sql(db, adds))
    new = mvcc.snapshot()
    with_null = _agree(new.db)
    assert _null_keys(new.db) and not _null_keys(old.db)
    assert _agree(old.db) == before  # still the version it pinned
    mvcc.commit(lambda db: execute_sql(db, removes))
    newest = mvcc.snapshot()
    assert _agree(newest.db) == before
    assert _agree(new.db) == with_null
    assert not _null_keys(newest.db) and _null_keys(new.db)
    for snapshot in (old, new, newest):
        snapshot.release()


class _CountedColumn(list):
    """A view column that counts the NULL scans made over it."""

    def __init__(self, values, scans: list) -> None:
        super().__init__(values)
        self.scans = scans

    def __contains__(self, value) -> bool:
        self.scans[0] += 1
        return super().__contains__(value)


def test_each_column_is_scanned_for_a_null_once_per_version(monkeypatch):
    """Ten asks of two and three conjuncts on one table version: each
    filtered column is scanned for a NULL once, not once per ask and
    conjunct (30 and 10 scans before the view kept the fact); a write
    makes a new version, which scans again, once."""
    db = Database("scans")
    names = ("a", "b", "c", "d")
    table = db.create_table("wide", Schema.of(*((name, INTEGER) for name in names)))
    table.insert_rows([[i % 10, i % 7, i, -i] for i in range(2_000)], confidence=0.5)
    scans = {name: [0] for name in names}
    build = table_module.column_view

    def counted(rows, width):
        columns, tids = build(rows, width)
        counted_columns = ColumnView(
            _CountedColumn(column, scans[name]) for column, name in zip(columns, names)
        )
        return counted_columns, tids

    monkeypatch.setattr(table_module, "column_view", counted)
    for i in range(10):
        sql = f"SELECT c FROM wide WHERE a = {i} AND b <> {i % 7} AND a < 8"
        result = run_sql(db, sql, engine="columnar")
        assert result.values() == run_sql(db, sql, engine="native").values()
    assert {name: count[0] for name, count in scans.items()} == {
        "a": 1, "b": 1, "c": 0, "d": 0
    }
    execute_sql(db, "UPDATE wide SET d = 0 WHERE a = 1")
    run_sql(db, "SELECT c FROM wide WHERE a = 1 AND b <> 2", engine="columnar")
    assert {name: count[0] for name, count in scans.items()} == {
        "a": 2, "b": 2, "c": 0, "d": 0
    }
