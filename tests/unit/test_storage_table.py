"""Unit tests for repro.storage tables, tuples and indexes."""

import re

import pytest

from repro.cost import LinearCost, LogarithmicCost
from repro.errors import InvalidConfidenceError, ReproError, SchemaError
from repro.storage import REAL, Schema, Table, TEXT, TupleId
from repro.storage.tuples import StoredTuple
from tests.error_codes import raises_code


@pytest.fixture
def table() -> Table:
    return Table("t", Schema.of(("name", TEXT), ("value", REAL)))


class TestTupleId:
    def test_string_roundtrip(self):
        tid = TupleId("Proposal", 2)
        assert str(tid) == "Proposal:2"
        assert TupleId.parse("Proposal:2") == tid

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            TupleId.parse("nocolon")
        with pytest.raises(ValueError):
            TupleId.parse("t:notanumber")

    def test_ordering(self):
        assert TupleId("a", 1) < TupleId("a", 2) < TupleId("b", 0)


class TestStoredTuple:
    def test_confidence_validated(self):
        with pytest.raises(InvalidConfidenceError):
            StoredTuple(TupleId("t", 0), ("x",), confidence=1.5)

    def test_confidence_above_cap_rejected(self):
        model = LinearCost(10.0, max_confidence=0.8)
        with pytest.raises(InvalidConfidenceError):
            StoredTuple(TupleId("t", 0), ("x",), confidence=0.9, cost_model=model)

    def test_set_confidence_respects_cap(self):
        # A confidence write is checked against the cap through
        # ``checked_confidence``, the check Table's writes use.
        model = LinearCost(10.0, max_confidence=0.8)
        row = StoredTuple(TupleId("t", 0), ("x",), confidence=0.8, cost_model=model)
        assert row.confidence == row.checked_confidence(0.8) == 0.8
        with pytest.raises(InvalidConfidenceError):
            row.checked_confidence(0.9)

    def test_improvement_cost_delegates_to_model(self):
        row = StoredTuple(
            TupleId("t", 0), ("x",), confidence=0.3, cost_model=LinearCost(100.0)
        )
        assert row.improvement_cost(0.5) == pytest.approx(20.0)

    def test_sequence_protocol(self):
        row = StoredTuple(TupleId("t", 0), ("a", 2.0))
        assert len(row) == 2
        assert row[0] == "a"
        assert list(row) == ["a", 2.0]


class TestTableInsert:
    def test_insert_assigns_sequential_ids(self, table):
        first = table.insert(["a", 1.0])
        second = table.insert(["b", 2.0])
        assert first == TupleId("t", 0)
        assert second == TupleId("t", 1)
        assert len(table) == 2

    def test_insert_validates_arity(self, table):
        with pytest.raises(SchemaError):
            table.insert(["only-one"])

    def test_insert_validates_types(self, table):
        from repro.errors import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            table.insert(["a", "not-a-number"])

    def test_insert_widens_int_for_real(self, table):
        tid = table.insert(["a", 3])
        assert table.get(tid).values == ("a", 3.0)

    def test_insert_many(self, table):
        ids = table.insert_rows([["a", 1.0], ["b", 2.0]], confidence=0.5)
        assert len(ids) == 2
        assert all(table.confidence_of(tid) == 0.5 for tid in ids)

    def test_not_null_enforced(self):
        from repro.storage import Column

        table = Table("t", Schema([Column("x", TEXT, nullable=False)]))
        with pytest.raises(SchemaError):
            table.insert([None])

    def test_ids_stable_across_deletes(self, table):
        first = table.insert(["a", 1.0])
        table.insert(["b", 2.0])
        table.delete(first)
        third = table.insert(["c", 3.0])
        assert third == TupleId("t", 2)


class TestTableAccess:
    def test_get_unknown_raises(self, table):
        with raises_code(ReproError, "UnknownTupleError"):
            table.get(TupleId("t", 99))

    def test_get_wrong_table_raises(self, table):
        table.insert(["a", 1.0])
        with raises_code(ReproError, "UnknownTupleError"):
            table.get(TupleId("other", 0))

    def test_scan_in_insertion_order(self, table):
        table.insert(["b", 2.0])
        table.insert(["a", 1.0])
        assert table.rows() == [("b", 2.0), ("a", 1.0)]

    def test_set_confidence(self, table):
        tid = table.insert(["a", 1.0], confidence=0.2)
        table.set_confidence(tid, 0.7)
        assert table.confidence_of(tid) == 0.7

    def test_assign_confidences(self, table):
        table.insert(["a", 1.0])
        table.insert(["b", 2.0])
        table.assign_confidences(lambda row: 0.25)
        assert all(row.confidence == 0.25 for row in table.scan())


_NOT_A_NUMBER = ["0.5", "5", b"x", None, True]

_WRITES = {
    "insert": lambda db, bad: db.table("t").insert(["b", 1.0], confidence=bad),
    "insert_rows": lambda db, bad: db.table("t").insert_rows(
        [["b", 1.0]], confidence=bad
    ),
    "set_confidence": lambda db, bad: db.set_confidence(TupleId("t", 0), bad),
    "apply_confidences": lambda db, bad: db.apply_confidences(
        {TupleId("t", 0): bad}
    ),
}


@pytest.mark.parametrize("bad", _NOT_A_NUMBER, ids=repr)
@pytest.mark.parametrize("write", sorted(_WRITES))
def test_a_confidence_that_is_not_a_number_is_refused(write, bad):
    """The Python API refuses what SQL's WITH CONFIDENCE refuses, in SQL's
    words: a string is no per-row sequence, a bool is no number, ``None``
    is no "keep" for a confidence write — and nothing changes."""
    from repro.storage import Database

    db = Database()
    db.create_table("t", Schema.of(("name", TEXT), ("value", REAL)))
    db.table("t").insert(["a", 0.0], confidence=0.25)
    before = [(row.tid, row.confidence) for row in db.table("t").scan()]
    with pytest.raises(
        InvalidConfidenceError, match=rf"expects a number, got {re.escape(repr(bad))}"
    ):
        _WRITES[write](db, bad)
    assert [(row.tid, row.confidence) for row in db.table("t").scan()] == before


class TestTableIndex:
    """``Table.lookup`` (the class and test names predate the removal of
    hash indexes; every lookup is the scan now)."""

    def test_lookup_without_index(self, table):
        table.insert(["a", 1.0])
        table.insert(["b", 2.0])
        table.insert(["a", 3.0])
        matches = table.lookup("name", "a")
        assert [row.values[1] for row in matches] == [1.0, 3.0]

    def test_index_backfills_existing_rows(self, table):
        table.insert(["a", 1.0])
        table.insert(["a", 2.0])
        assert len(table.lookup("name", "a")) == 2

    def test_index_updates_on_delete(self, table):
        tid = table.insert(["a", 1.0])
        table.delete(tid)
        assert table.lookup("name", "a") == []


class TestChangeTracking:
    def test_drain_reports_touched_rows_as_copies(self, table):
        ids = table.insert_rows([[c, 1.0] for c in "abcdefghijkl"], 0.5)
        version, rows, complete = table.drain_changes(None)
        assert complete and list(rows) == list(range(12))  # first cut: all
        table.set_confidence(ids[0], 0.9)
        table.update(ids[1], ["b2", 2.5])
        table.delete(ids[2])
        gone = table.insert(["d", 4.0])
        table.delete(gone)
        latest, rows, complete = table.drain_changes(version)
        assert not complete and latest == table.data_version
        assert rows[2] is None and rows[gone.ordinal] is None
        assert rows[0].confidence == 0.9 and rows[0] is not table.get(ids[0])
        assert rows[1].values == ("b2", 2.5)
        assert table.drain_changes(latest) == (latest, {}, False)

    def test_drain_from_another_version_is_complete(self, table):
        table.insert_rows([[c, 1.0] for c in "abcd"])
        version, _, _ = table.drain_changes(None)
        table.insert(["e", 2.0])
        assert not table.drain_changes(version)[2]  # someone else's delta
        table.insert(["f", 3.0])
        _, rows, complete = table.drain_changes(version)
        assert complete and [row.values[0] for row in rows.values()] == list(
            "abcdef"
        )

    def test_raising_assigner_changes_nothing(self, table):
        table.insert_rows([["a", 1.0], ["b", 2.0]], confidence=0.5)
        version, _, _ = table.drain_changes(None)
        table.assign_confidences(lambda row: 0.25)
        assert table.data_version == version + 1  # one mutation, not two
        version, rows, complete = table.drain_changes(version)
        assert complete and {row.confidence for row in rows.values()} == {0.25}

        def second_row_fails(row):
            if row.values[0] == "b":
                raise ValueError("no provenance")
            return 0.75

        # Every row is scored before the first is changed.
        with pytest.raises(ValueError):
            table.assign_confidences(second_row_fails)
        assert table.data_version == version
        assert [row.confidence for row in table.scan()] == [0.25, 0.25]
        assert table.drain_changes(version) == (version, {}, False)

    def test_change_set_is_bounded_by_the_table_with_no_consumer(self, table):
        table.insert_rows([[str(i), float(i)] for i in range(8)])
        version, _, _ = table.drain_changes(None)  # tracking starts here
        most = 0
        for i in range(1000):
            table.delete(table.insert(["churn", float(i)]))
            most = max(most, len(table._changed or ()))
        assert 0 < most <= len(table)  # never more entries than rows
        assert table._changed is None  # collapsed to "everything"
        _, rows, complete = table.drain_changes(version)
        assert complete and len(rows) == 8

    def test_out_of_order_force_insert_is_scanned_in_ordinal_order(self, table):
        for ordinal in (5, 2, 9):
            table._force_insert(
                StoredTuple(TupleId("t", ordinal), (str(ordinal), 1.0))
            )
        assert [row.tid.ordinal for row in table.scan()] == [2, 5, 9]
        table.insert(["next", 1.0])
        assert [row.tid.ordinal for row in table.scan()] == [2, 5, 9, 10]
        assert [tid.ordinal for tid in table.column_data()[1]] == [2, 5, 9, 10]
