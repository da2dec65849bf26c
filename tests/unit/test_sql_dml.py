"""Unit tests for SQL DML/DDL: CREATE/DROP TABLE, INSERT, UPDATE, DELETE."""

import pytest

from repro.errors import PlanError, ReproError, SchemaError
from repro.sql import DmlResult, execute_sql, parse_command
from repro.sql.ast import (
    CreateTableStatement,
    DeleteStatement,
    InsertStatement,
    UpdateStatement,
)
from repro.storage import Database
from tests.error_codes import raises_code


@pytest.fixture
def db() -> Database:
    database = Database()
    execute_sql(
        database,
        "CREATE TABLE items (name TEXT NOT NULL, qty INT, price REAL)",
    )
    execute_sql(
        database,
        "INSERT INTO items VALUES ('apple', 5, 1.5), ('pear', 2, 2.0) "
        "WITH CONFIDENCE 0.5",
    )
    return database


class TestParseCommand:
    def test_create_parses(self):
        command = parse_command("CREATE TABLE t (a TEXT, b INT NOT NULL)")
        assert isinstance(command, CreateTableStatement)
        assert command.columns[1].nullable is False

    def test_insert_parses(self):
        command = parse_command(
            "INSERT INTO t (a, b) VALUES (1, 2), (3, 4) WITH CONFIDENCE 0.3"
        )
        assert isinstance(command, InsertStatement)
        assert command.columns == ["a", "b"]
        assert len(command.rows) == 2
        assert command.confidence is not None

    def test_update_parses(self):
        command = parse_command("UPDATE t SET a = 1, b = b + 1 WHERE a > 0")
        assert isinstance(command, UpdateStatement)
        assert len(command.assignments) == 2

    def test_delete_parses(self):
        command = parse_command("DELETE FROM t WHERE a = 1")
        assert isinstance(command, DeleteStatement)

    def test_select_still_parses(self):
        from repro.sql.ast import SelectStatement

        assert isinstance(parse_command("SELECT a FROM t"), SelectStatement)

    def test_trailing_garbage_rejected(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse_command("DELETE FROM t WHERE a = 1 nonsense")

    def test_missing_values_keyword(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            parse_command("INSERT INTO t (1, 2)")


class TestCreateDrop:
    def test_create_types_and_not_null(self, db):
        table = db.table("items")
        assert table.schema.types[0].value == "TEXT"
        assert not table.schema[0].nullable
        with pytest.raises(SchemaError):
            execute_sql(db, "INSERT INTO items VALUES (NULL, 1, 1.0)")

    def test_unknown_type_rejected(self, db):
        with raises_code(ReproError, "SqlError"):
            execute_sql(db, "CREATE TABLE bad (x QUATERNION)")

    def test_type_synonyms(self, db):
        execute_sql(
            db,
            "CREATE TABLE syn (a STRING, b INTEGER, c DOUBLE, d BOOLEAN)",
        )
        assert [t.value for t in db.table("syn").schema.types] == [
            "TEXT",
            "INTEGER",
            "REAL",
            "BOOLEAN",
        ]

    def test_drop(self, db):
        execute_sql(db, "DROP TABLE items")
        with raises_code(SchemaError, "UnknownTableError"):
            db.table("items")


class TestInsert:
    def test_values_and_confidence(self, db):
        rows = list(db.table("items").scan())
        assert rows[0].values == ("apple", 5, 1.5)
        assert rows[0].confidence == 0.5

    def test_default_confidence_is_one(self, db):
        result = execute_sql(db, "INSERT INTO items VALUES ('fig', 1, 0.5)")
        assert isinstance(result, DmlResult)
        assert db.resolve(result.tuple_ids[0]).confidence == 1.0

    def test_partial_column_list_pads_nulls(self, db):
        result = execute_sql(db, "INSERT INTO items (name) VALUES ('kiwi')")
        stored = db.resolve(result.tuple_ids[0])
        assert stored.values == ("kiwi", None, None)

    def test_constant_expressions_allowed(self, db):
        result = execute_sql(
            db, "INSERT INTO items VALUES ('melon', 2 + 3, 1.5 * 2)"
        )
        assert db.resolve(result.tuple_ids[0]).values == ("melon", 5, 3.0)

    def test_column_reference_rejected(self, db):
        from repro.errors import BindError

        with pytest.raises(BindError):
            execute_sql(db, "INSERT INTO items VALUES (name, 1, 1.0)")

    def test_arity_mismatch_rejected(self, db):
        with raises_code(ReproError, "SqlError"):
            execute_sql(db, "INSERT INTO items (name, qty) VALUES ('x')")

    def test_duplicate_column_rejected(self, db):
        with raises_code(ReproError, "SqlError"):
            execute_sql(db, "INSERT INTO items (name, name) VALUES ('x', 'y')")

    def test_confidence_out_of_range(self, db):
        with raises_code(ReproError, "SqlError"):
            execute_sql(
                db, "INSERT INTO items VALUES ('x', 1, 1.0) WITH CONFIDENCE 1.5"
            )


class TestUpdate:
    def test_update_values(self, db):
        result = execute_sql(
            db, "UPDATE items SET qty = qty * 2 WHERE name = 'apple'"
        )
        assert result.rows_affected == 1
        values = execute_sql(
            db, "SELECT qty FROM items WHERE name = 'apple'"
        ).values()
        assert values == [(10,)]

    def test_update_all_rows(self, db):
        result = execute_sql(db, "UPDATE items SET price = 0.0")
        assert result.rows_affected == 2

    def test_update_confidence(self, db):
        execute_sql(
            db,
            "UPDATE items SET qty = 9 WHERE name = 'pear' WITH CONFIDENCE 0.9",
        )
        pear = db.table("items").lookup("name", "pear")[0]
        assert pear.confidence == 0.9
        apple = db.table("items").lookup("name", "apple")[0]
        assert apple.confidence == 0.5  # untouched

    def test_update_keeps_tuple_identity(self, db):
        before = [row.tid for row in db.table("items").scan()]
        execute_sql(db, "UPDATE items SET qty = 0")
        after = [row.tid for row in db.table("items").scan()]
        assert before == after

    def test_update_maintains_index(self, db):
        """``lookup`` follows an UPDATE (it once read a hash index)."""
        execute_sql(db, "UPDATE items SET name = 'renamed' WHERE qty = 5")
        assert len(db.table("items").lookup("name", "renamed")) == 1
        assert db.table("items").lookup("name", "apple") == []

    def test_double_assignment_rejected(self, db):
        with raises_code(ReproError, "SqlError"):
            execute_sql(db, "UPDATE items SET qty = 1, qty = 2")

    def test_where_must_be_boolean(self, db):
        # A planner refusal: PlanError, once a subclass of the SQL errors.
        with pytest.raises(PlanError):
            execute_sql(db, "UPDATE items SET qty = 1 WHERE qty + 1")


class TestDelete:
    def test_delete_where(self, db):
        result = execute_sql(db, "DELETE FROM items WHERE qty < 3")
        assert result.rows_affected == 1
        remaining = execute_sql(db, "SELECT name FROM items").values()
        assert remaining == [("apple",)]

    def test_delete_all(self, db):
        result = execute_sql(db, "DELETE FROM items")
        assert result.rows_affected == 2
        assert len(db.table("items")) == 0

    def test_delete_null_predicate_keeps_row(self, db):
        execute_sql(db, "INSERT INTO items (name) VALUES ('nullqty')")
        execute_sql(db, "DELETE FROM items WHERE qty < 100")
        names = {row.values[0] for row in db.table("items").scan()}
        assert names == {"nullqty"}  # NULL comparison is not TRUE


class TestCliIntegration:
    def test_shell_runs_dml(self):
        from repro.cli import CommandShell

        shell = CommandShell()
        shell.execute_line("sql CREATE TABLE t (a TEXT)")
        output = shell.execute_line(
            "sql INSERT INTO t VALUES ('x') WITH CONFIDENCE 0.3"
        )
        assert "INSERT: 1 row(s)" in output
        listing = shell.execute_line("sql SELECT a FROM t")
        assert "x | 0.300" in listing
