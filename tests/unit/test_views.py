"""Unit tests for SQL views."""

import sys
import threading

import pytest

from repro.errors import PlanError, SchemaError, UnknownColumnError
from repro.sql import execute_sql, parse, plan_statement, run_sql
from repro.storage import Database
from tests.error_codes import raises_code


@pytest.fixture
def db() -> Database:
    database = Database()
    execute_sql(database, "CREATE TABLE sales (region TEXT, amt REAL)")
    execute_sql(
        database,
        "INSERT INTO sales VALUES ('east', 10.0), ('east', 20.0), "
        "('west', 5.0) WITH CONFIDENCE 0.8",
    )
    execute_sql(
        database,
        "CREATE VIEW east_sales AS SELECT region, amt FROM sales "
        "WHERE region = 'east'",
    )
    return database


class TestViewBasics:
    def test_select_through_view(self, db):
        result = run_sql(db, "SELECT amt FROM east_sales ORDER BY amt")
        assert result.values() == [(10.0,), (20.0,)]

    def test_view_preserves_lineage_confidence(self, db):
        result = run_sql(db, "SELECT amt FROM east_sales")
        assert result.confidences(db) == [0.8, 0.8]

    def test_view_columns_qualified_by_view_name(self, db):
        result = run_sql(db, "SELECT east_sales.amt FROM east_sales")
        assert len(result) == 2

    def test_view_with_alias(self, db):
        result = run_sql(db, "SELECT e.amt FROM east_sales e WHERE e.amt > 15")
        assert result.values() == [(20.0,)]

    def test_view_reflects_base_table_changes(self, db):
        execute_sql(db, "INSERT INTO sales VALUES ('east', 99.0)")
        result = run_sql(db, "SELECT COUNT(*) FROM east_sales")
        assert result.rows[0].values == (3,)

    def test_view_over_view(self, db):
        execute_sql(
            db, "CREATE VIEW big_east AS SELECT amt FROM east_sales WHERE amt > 15"
        )
        assert run_sql(db, "SELECT amt FROM big_east").values() == [(20.0,)]

    def test_join_view_with_table(self, db):
        result = run_sql(
            db,
            "SELECT v.amt FROM east_sales v JOIN sales s ON v.amt = s.amt",
        )
        assert sorted(result.values()) == [(10.0,), (20.0,)]

    def test_aggregate_over_view(self, db):
        result = run_sql(db, "SELECT SUM(amt) FROM east_sales")
        assert result.rows[0].values == (30.0,)


class TestViewCatalog:
    def test_duplicate_name_rejected(self, db):
        with raises_code(SchemaError, "DuplicateTableError"):
            execute_sql(db, "CREATE VIEW sales AS SELECT 1 FROM sales")
        with raises_code(SchemaError, "DuplicateTableError"):
            execute_sql(
                db, "CREATE VIEW east_sales AS SELECT region FROM sales"
            )

    def test_invalid_definition_not_registered(self, db):
        with pytest.raises(UnknownColumnError):
            execute_sql(db, "CREATE VIEW bad AS SELECT nope FROM sales")
        assert db.view_definition("bad") is None

    def test_a_refused_definition_writes_nothing_to_the_log(self, tmp_path):
        """A definition that does not plan used to be journaled and then
        retracted: a ``create_view`` + ``drop_view`` pair per refusal,
        replicated and replayed (two refusals moved the WAL by four)."""
        import json
        import os

        from repro.storage.durability import scan_wal
        from repro.storage.durability.recovery import WAL_FILE

        db = Database.open(str(tmp_path))
        try:
            execute_sql(db, "CREATE TABLE t (k TEXT, n INT)")
            last_seq = db._durability.last_seq
            with pytest.raises(UnknownColumnError):
                execute_sql(db, "CREATE VIEW bad AS SELECT nope FROM t")
            with pytest.raises(
                PlanError, match="^view definitions form a cycle: v -> v$"
            ):
                execute_sql(db, "CREATE VIEW v AS SELECT k FROM v")
            assert db.view_names() == []
            assert db._durability.last_seq == last_seq
            kinds = [
                json.loads(payload)["op"]
                for payload in scan_wal(os.path.join(tmp_path, WAL_FILE)).payloads
            ]
            assert kinds == ["create_table"]
            execute_sql(db, "CREATE VIEW v AS SELECT k FROM t")  # name is free
            assert db._durability.last_seq == last_seq + 1
        finally:
            db.close()

    def test_drop_view(self, db):
        execute_sql(db, "DROP VIEW east_sales")
        with raises_code(SchemaError, "UnknownTableError"):
            run_sql(db, "SELECT * FROM east_sales")

    def test_drop_unknown_view(self, db):
        with raises_code(SchemaError, "UnknownTableError"):
            execute_sql(db, "DROP VIEW missing")

    def test_drop_table_does_not_drop_view(self, db):
        with raises_code(SchemaError, "UnknownTableError"):
            execute_sql(db, "DROP TABLE east_sales")

    def test_view_names_listed(self, db):
        assert db.view_names() == ["east_sales"]

    def test_definition_text_stored(self, db):
        definition = db.view_definition("East_Sales")
        assert definition is not None
        assert definition.startswith("SELECT region, amt FROM sales")


class TestViewCycles:
    def test_mutual_recursion_detected(self, db):
        # Create a valid view, then re-point its target to form a cycle via
        # direct catalog manipulation (SQL validation would block this).
        db.create_view("v1", "SELECT amt FROM v2")
        db.create_view("v2", "SELECT amt FROM v1")
        with pytest.raises(PlanError) as excinfo:
            run_sql(db, "SELECT * FROM v1")
        assert "cycle" in str(excinfo.value)

    def test_self_reference_detected(self, db):
        db.create_view("loop", "SELECT amt FROM loop")
        with pytest.raises(PlanError):
            run_sql(db, "SELECT * FROM loop")

    def test_cycle_message_names_the_chain(self, db):
        db.create_view("a", "SELECT amt FROM b")
        db.create_view("b", "SELECT amt FROM a")
        for _ in range(2):  # the stack is per planning call: no residue
            with pytest.raises(
                PlanError, match="^view definitions form a cycle: a -> b -> a$"
            ):
                plan_statement(db, parse("SELECT * FROM a"))

    def test_two_threads_planning_over_one_view_see_no_cycle(self, db):
        """The expansion stack used to be one module-level list: a thread
        planning over a view found it there while another was inside the
        expansion and reported ``east_sales -> east_sales``."""
        statement = parse("SELECT e.amt FROM east_sales e WHERE e.amt > 5")
        rounds = 200
        barrier = threading.Barrier(2)
        errors: list = []

        def plan() -> None:
            try:
                for _ in range(rounds):
                    barrier.wait(timeout=30)
                    plan_statement(db, statement)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=plan) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
