"""MVCC generation semantics: pinning, copy-on-write, isolation, GC."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError, ServerError
from repro.server import MVCCDatabase
from repro.storage import Database, INTEGER, REAL, Schema, TEXT
from repro.storage.tuples import TupleId
from tests.error_codes import raises_code


def _db() -> Database:
    db = Database("mvcc-test")
    table = db.create_table(
        "t", Schema.of(("k", INTEGER), ("name", TEXT), ("v", REAL))
    )
    for i in range(5):
        table.insert([i, f"row{i}", float(i)], confidence=0.5)
    db.create_table("u", Schema.of(("k", INTEGER))).insert([1])
    return db


class TestSnapshotIsolation:
    def test_snapshot_pins_state_across_inserts(self):
        mvcc = MVCCDatabase(_db())
        snap = mvcc.snapshot()
        assert len(snap.db.table("t")) == 5
        mvcc.commit(lambda db: db.table("t").insert([99, "new", 9.9]))
        assert len(snap.db.table("t")) == 5  # pinned view never moves
        fresh = mvcc.snapshot()
        assert len(fresh.db.table("t")) == 6
        snap.release()
        fresh.release()

    def test_snapshot_pins_confidences_across_writebacks(self):
        mvcc = MVCCDatabase(_db())
        snap = mvcc.snapshot()
        tid = TupleId("t", 0)
        before = snap.db.confidence_of(tid)
        mvcc.commit(lambda db: db.apply_confidences({tid: 0.95}))
        assert snap.db.confidence_of(tid) == before
        fresh = mvcc.snapshot()
        assert fresh.db.confidence_of(tid) == 0.95
        snap.release()
        fresh.release()

    def test_batch_confidences_match_the_per_tuple_reads_and_errors(self):
        """``confidences(tids)`` looks each table up once; values, key order
        and the error for an unresolvable tid are the single-tid ones, on
        the live database and on a snapshot alike."""
        from repro.errors import ReproError

        db = _db()
        snap = MVCCDatabase(db).snapshot()
        tids = [TupleId("t", 3), TupleId("u", 0), TupleId("t", 0), TupleId("t", 3)]
        for source in (db, snap.db):
            batch = source.confidences(iter(tids))
            assert list(batch) == tids[:3]
            assert batch == {tid: source.confidence_of(tid) for tid in tids}
            for bad, error, code in (
                (TupleId("t", 77), ReproError, "UnknownTupleError"),
                (TupleId("nope", 0), SchemaError, "UnknownTableError"),
            ):
                with raises_code(error, code) as single:
                    source.confidence_of(bad)
                with raises_code(error, code) as batched:
                    source.confidences([tids[0], bad])
                assert str(batched.value) == str(single.value)
        snap.release()

    def test_snapshot_rows_are_copies_not_references(self):
        # Confidence writes mutate live StoredTuple objects in place; a
        # snapshot that shared them would leak the write-back.
        db = _db()
        mvcc = MVCCDatabase(db)
        snap = mvcc.snapshot()
        live = db.table("t").get(TupleId("t", 1))
        pinned = snap.db.resolve(TupleId("t", 1))
        assert pinned is not live
        mvcc.commit(lambda d: d.apply_confidences({TupleId("t", 1): 0.9}))
        assert pinned.confidence == 0.5
        snap.release()

    def test_snapshot_sees_dropped_table_after_commit_only(self):
        mvcc = MVCCDatabase(_db())
        snap = mvcc.snapshot()
        mvcc.commit(lambda db: db.drop_table("u"))
        assert snap.db.has_table("u")
        fresh = mvcc.snapshot()
        assert not fresh.db.has_table("u")
        with raises_code(SchemaError, "UnknownTableError"):
            fresh.db.table("u")
        snap.release()
        fresh.release()


class TestCopyOnWrite:
    def test_untouched_tables_are_shared_between_generations(self):
        mvcc = MVCCDatabase(_db())
        first = mvcc.snapshot()
        mvcc.commit(lambda db: db.table("t").insert([7, "x", 7.0]))
        second = mvcc.snapshot()
        assert second.db.table("u") is first.db.table("u")  # shared copy
        assert second.db.table("t") is not first.db.table("t")
        first.release()
        second.release()

    def test_sequence_is_monotonic(self):
        mvcc = MVCCDatabase(_db())
        seqs = [mvcc.current_seq]
        for i in range(3):
            mvcc.commit(lambda db: db.table("u").insert([i]))
            seqs.append(mvcc.current_seq)
        assert seqs == sorted(set(seqs))

    def test_durable_database_keys_generations_by_wal_seq(self, tmp_path):
        db = Database.open(str(tmp_path / "state"))
        db.create_table("t", Schema.of(("k", INTEGER))).insert([1])
        mvcc = MVCCDatabase(db)
        before = mvcc.current_seq
        mvcc.commit(lambda d: d.table("t").insert([2]))
        assert mvcc.current_seq == db._durability.last_seq > before
        db.close()


class TestGenerationGC:
    def test_unpinned_generations_are_collected(self):
        mvcc = MVCCDatabase(_db())
        snap = mvcc.snapshot()
        pinned_seq = snap.seq
        for i in range(3):
            mvcc.commit(lambda db: db.table("u").insert([10 + i]))
        assert set(mvcc.generation_seqs()) == {pinned_seq, mvcc.current_seq}
        snap.release()
        assert mvcc.generation_seqs() == [mvcc.current_seq]

    def test_release_is_idempotent(self):
        mvcc = MVCCDatabase(_db())
        snap = mvcc.snapshot()
        snap.release()
        snap.release()  # no-op, no underflow
        assert mvcc.generation_seqs() == [mvcc.current_seq]

    def test_multiple_pins_on_one_generation(self):
        mvcc = MVCCDatabase(_db())
        a, b = mvcc.snapshot(), mvcc.snapshot()
        seq = a.seq
        mvcc.commit(lambda db: db.table("u").insert([5]))
        a.release()
        assert seq in mvcc.generation_seqs()  # b still pins it
        b.release()
        assert seq not in mvcc.generation_seqs()


class TestReadOnlyViews:
    def test_snapshot_table_rejects_mutation(self):
        mvcc = MVCCDatabase(_db())
        snap = mvcc.snapshot()
        table = snap.db.table("t")
        for attempt in (
            lambda: table.insert([1, "x", 1.0]),
            lambda: table.delete(TupleId("t", 0)),
            lambda: table.update(TupleId("t", 0), [1, "x", 1.0]),
            lambda: table.set_confidence(TupleId("t", 0), 0.9),
            lambda: table.insert_rows([[1, "x", 1.0]]),
            lambda: table.delete_rows([0]),
            lambda: table.update_rows([0], confidence=0.9),
            lambda: table.assign_confidences(lambda row: 0.9),
        ):
            with raises_code(ServerError, "SnapshotWriteError"):
                attempt()
        snap.release()

    def test_snapshot_database_rejects_ddl_and_writebacks(self):
        mvcc = MVCCDatabase(_db())
        snap = mvcc.snapshot()
        for attempt in (
            lambda: snap.db.create_table("x", Schema.of(("k", INTEGER))),
            lambda: snap.db.drop_table("t"),
            lambda: snap.db.apply_confidences({TupleId("t", 0): 0.9}),
            lambda: snap.db.set_confidence(TupleId("t", 0), 0.9),
        ):
            with raises_code(ServerError, "SnapshotWriteError"):
                attempt()
        snap.release()

    def test_snapshot_table_read_surface_matches_live(self):
        db = _db()
        mvcc = MVCCDatabase(db)
        snap = mvcc.snapshot()
        live, pinned = db.table("t"), snap.db.table("t")
        assert pinned.rows() == live.rows()
        assert len(pinned) == len(live)
        assert pinned.schema is live.schema
        columns, tids = pinned.column_data()
        live_columns, live_tids = live.column_data()
        assert columns == live_columns and tids == live_tids
        assert [r.values for r in pinned.lookup("k", 2)] == [
            r.values for r in live.lookup("k", 2)
        ]
        snap.release()

    def test_commit_failure_publishes_nothing(self):
        mvcc = MVCCDatabase(_db())
        seq = mvcc.current_seq

        def bad(db):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            mvcc.commit(bad)
        assert mvcc.current_seq == seq
        assert mvcc.generation_seqs() == [seq]


class TestDeltaPublication:
    def test_one_row_commit_copies_one_row(self):
        db = _db()
        mvcc = MVCCDatabase(db)
        first = mvcc.snapshot()
        first.db.table("t").column_data()  # built: the next one carries it
        mvcc.commit(lambda d: d.table("t").set_confidence(TupleId("t", 2), 0.8))
        second = mvcc.snapshot()
        old, new = list(first.db.table("t")), list(second.db.table("t"))
        assert [a is b for a, b in zip(old, new)] == [
            True, True, False, True, True,
        ]
        assert new[2].confidence == 0.8 and old[2].confidence == 0.5
        assert new[2] is not db.table("t").get(TupleId("t", 2))
        assert second.db.table("t").column_data() == (
            db.table("t").column_data()
        )
        first.release()
        second.release()

    def test_recreated_table_with_equal_version_is_resnapshotted(self):
        # Drop + recreate under the same name with the same number of
        # mutations (what Replica._resync does): the version number is
        # equal again, the table is not.
        mvcc = MVCCDatabase(_db())
        assert mvcc.snapshot().db.table("u").rows() == [(1,)]

        def recreate(db):
            db.drop_table("u")
            db.create_table("u", Schema.of(("x", TEXT), ("y", TEXT))).insert(
                ["a", "b"]
            )

        mvcc.commit(recreate)
        fresh = mvcc.snapshot().db.table("u")
        assert fresh.rows() == [("a", "b")]
        assert [column.name for column in fresh.schema] == ["x", "y"]

    def test_second_wrapper_over_one_database_never_serves_stale_rows(self):
        db = _db()
        one, two = MVCCDatabase(db), MVCCDatabase(db)
        one.commit(lambda d: d.table("t").insert([5, "five", 5.0]))
        two.commit(lambda d: d.table("t").insert([6, "six", 6.0]))
        one.commit(lambda d: d.table("t").delete(TupleId("t", 0)))
        for mvcc in (one, two):
            mvcc.commit(lambda d: None)
            assert mvcc.snapshot().db.table("t").rows() == db.table("t").rows()

    def test_failed_commit_leftovers_are_published_by_the_next(self):
        db = _db()
        mvcc = MVCCDatabase(db)

        def half(d):
            d.table("t").insert([5, "five", 5.0])
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            mvcc.commit(half)
        assert len(mvcc.snapshot().db.table("t")) == 5
        mvcc.commit(lambda d: d.table("u").insert([2]))
        assert mvcc.snapshot().db.table("t").rows() == db.table("t").rows()
