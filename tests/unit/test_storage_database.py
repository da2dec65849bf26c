"""Unit tests for repro.storage.database and csvio."""

import io

import pytest

from repro.cost import LinearCost
from repro.errors import InvalidConfidenceError, SchemaError
from repro.storage import (
    CONFIDENCE_COLUMN,
    Database,
    REAL,
    Schema,
    TEXT,
    dump_csv,
    load_csv,
)
from tests.error_codes import raises_code


@pytest.fixture
def db() -> Database:
    database = Database("test")
    table = database.create_table(
        "items", Schema.of(("name", TEXT), ("price", REAL))
    )
    table.insert(["apple", 1.0], confidence=0.5, cost_model=LinearCost(10.0))
    table.insert(["pear", 2.0], confidence=0.9)
    return database


class TestCatalog:
    def test_create_and_lookup(self, db):
        assert db.table("items").name == "items"
        assert db.has_table("ITEMS")  # case-insensitive

    def test_duplicate_rejected(self, db):
        with raises_code(SchemaError, "DuplicateTableError"):
            db.create_table("Items", Schema.of(("x", TEXT)))

    def test_unknown_table(self, db):
        with raises_code(SchemaError, "UnknownTableError"):
            db.table("missing")

    def test_drop_table(self, db):
        db.drop_table("items")
        assert not db.has_table("items")
        with raises_code(SchemaError, "UnknownTableError"):
            db.drop_table("items")

    def test_table_names(self, db):
        db.create_table("other", Schema.of(("x", TEXT)))
        assert db.table_names() == ["items", "other"]


class TestTupleResolution:
    def test_resolve_and_confidence(self, db):
        table = db.table("items")
        tid = next(iter(table.scan())).tid
        assert db.resolve(tid).values == ("apple", 1.0)
        assert db.confidence_of(tid) == 0.5

    def test_confidences_batch(self, db):
        tids = [row.tid for row in db.table("items").scan()]
        confidences = db.confidences(tids)
        assert confidences[tids[0]] == 0.5
        assert confidences[tids[1]] == 0.9

    def test_set_confidence(self, db):
        tid = next(iter(db.table("items").scan())).tid
        db.set_confidence(tid, 0.8)
        assert db.confidence_of(tid) == 0.8

    def test_apply_confidences_all_or_nothing(self, db):
        tids = [row.tid for row in db.table("items").scan()]
        with pytest.raises(InvalidConfidenceError):
            db.apply_confidences({tids[0]: 0.9, tids[1]: 1.5})
        # Nothing was applied.
        assert db.confidence_of(tids[0]) == 0.5

    def test_apply_confidences_success(self, db):
        tids = [row.tid for row in db.table("items").scan()]
        db.apply_confidences({tids[0]: 0.6, tids[1]: 0.95})
        assert db.confidence_of(tids[0]) == 0.6


class TestCsvIO:
    def test_roundtrip_preserves_confidence(self, db):
        buffer = io.StringIO()
        count = dump_csv(db.table("items"), buffer)
        assert count == 2
        target = Database("copy")
        table = target.create_table(
            "items", Schema.of(("name", TEXT), ("price", REAL))
        )
        buffer.seek(0)
        loaded = load_csv(table, buffer)
        assert loaded == 2
        rows = list(table.scan())
        assert rows[0].values == ("apple", 1.0)
        assert rows[0].confidence == 0.5
        assert rows[1].confidence == 0.9

    def test_load_without_confidence_column(self):
        db = Database()
        table = db.create_table("t", Schema.of(("name", TEXT), ("price", REAL)))
        source = io.StringIO("name,price\nfig,3.5\n")
        load_csv(table, source, default_confidence=0.42)
        row = next(iter(table.scan()))
        assert row.confidence == 0.42

    def test_load_parses_nulls(self):
        db = Database()
        table = db.create_table("t", Schema.of(("name", TEXT), ("price", REAL)))
        load_csv(table, io.StringIO("name,price\nfig,\n"))
        assert next(iter(table.scan())).values == ("fig", None)

    def test_load_missing_column_rejected(self):
        db = Database()
        table = db.create_table("t", Schema.of(("name", TEXT), ("price", REAL)))
        with pytest.raises(SchemaError):
            load_csv(table, io.StringIO("name\nfig\n"))

    def test_load_extra_column_rejected(self):
        db = Database()
        table = db.create_table("t", Schema.of(("name", TEXT)))
        with pytest.raises(SchemaError):
            load_csv(table, io.StringIO("name,bogus\nfig,1\n"))

    def test_empty_file(self):
        db = Database()
        table = db.create_table("t", Schema.of(("name", TEXT)))
        assert load_csv(table, io.StringIO("")) == 0

    def test_confidence_header_written(self, db):
        buffer = io.StringIO()
        dump_csv(db.table("items"), buffer)
        header = buffer.getvalue().splitlines()[0]
        assert CONFIDENCE_COLUMN in header

    def test_boolean_parsing(self):
        from repro.storage import BOOLEAN

        db = Database()
        table = db.create_table("t", Schema.of(("flag", BOOLEAN)))
        load_csv(table, io.StringIO("flag\ntrue\nno\n1\n"))
        assert [row.values[0] for row in table.scan()] == [True, False, True]

    def test_bad_boolean_rejected(self):
        from repro.storage import BOOLEAN

        db = Database()
        table = db.create_table("t", Schema.of(("flag", BOOLEAN)))
        table.insert([False])
        version = table.data_version
        with pytest.raises(SchemaError, match="row 3, column 'flag'"):
            load_csv(table, io.StringIO("flag\ntrue\nmaybe\n"))
        # The good line before the bad one is not loaded either (it was,
        # when every CSV line was its own insert).
        assert table.rows() == [(False,)] and table.data_version == version
