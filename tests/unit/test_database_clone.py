"""Unit tests for Database.clone (what-if analysis support)."""

import pytest

from repro.cost import LinearCost
from repro.sql import execute_sql, run_sql
from repro.storage import Database, REAL, Schema, TEXT


@pytest.fixture
def db() -> Database:
    database = Database("orig")
    table = database.create_table(
        "t", Schema.of(("k", TEXT), ("v", REAL))
    )
    first = table.insert(["a", 1.0], confidence=0.3, cost_model=LinearCost(10.0))
    table.insert(["b", 2.0], confidence=0.5)
    table.delete(first)  # leave an ordinal gap
    table.insert(["c", 3.0], confidence=0.7)
    database.create_view("view_t", "SELECT k FROM t WHERE v > 1.5")
    return database


class TestClone:
    def test_values_and_annotations_copied(self, db):
        copy = db.clone()
        original = {row.tid: row for row in db.table("t").scan()}
        cloned = {row.tid: row for row in copy.table("t").scan()}
        assert set(original) == set(cloned)  # tuple ids preserved
        for tid, row in original.items():
            assert cloned[tid].values == row.values
            assert cloned[tid].confidence == row.confidence
            assert cloned[tid].cost_model is row.cost_model

    def test_ordinal_gaps_preserved(self, db):
        copy = db.clone()
        new_tid = copy.table("t").insert(["d", 4.0])
        # Next ordinal continues after the original's counter (no reuse of
        # the deleted slot, no collision with existing tuples).
        assert new_tid.ordinal == 3

    def test_mutating_clone_leaves_original_alone(self, db):
        copy = db.clone()
        tid = next(iter(copy.table("t").scan())).tid
        copy.set_confidence(tid, 0.99)
        execute_sql(copy, "INSERT INTO t VALUES ('z', 9.0)")
        assert db.confidence_of(tid) != 0.99
        assert len(db.table("t")) == 2
        assert len(copy.table("t")) == 3

    def test_indexes_work_on_clone(self, db):
        copy = db.clone()
        matches = copy.table("t").lookup("k", "b")
        assert len(matches) == 1

    def test_views_copied(self, db):
        copy = db.clone()
        assert run_sql(copy, "SELECT k FROM view_t").values() == run_sql(
            db, "SELECT k FROM view_t"
        ).values()

    def test_clone_name(self, db):
        assert db.clone().name == "orig-clone"
        assert db.clone("scenario-b").name == "scenario-b"

    def test_what_if_improvement_preview(self, db):
        """The motivating use: apply a plan to a clone, compare outcomes."""
        from repro.increment import (
            IncrementProblem,
            SimulatedImprovementService,
            solve_greedy,
        )

        result = run_sql(db, "SELECT k FROM t")
        problem = IncrementProblem.from_results(
            [row.lineage for row in result.rows],
            db,
            threshold=0.6,
            required_count=2,
        )
        plan = solve_greedy(problem)
        preview = db.clone()
        SimulatedImprovementService().apply(preview, plan)
        improved = sum(
            1 for c in run_sql(preview, "SELECT k FROM t").confidences(preview)
            if c >= 0.6
        )
        assert improved >= 2
        # The original database is untouched.
        assert sorted(run_sql(db, "SELECT k FROM t").confidences(db)) == [
            0.5,
            0.7,
        ]
