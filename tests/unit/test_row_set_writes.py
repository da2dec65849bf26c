"""A statement is one mutation: one storage call, one WAL record.

``Table.insert_rows`` / ``update_rows`` / ``delete_rows`` are the three
mutators (SQL ``INSERT`` / ``UPDATE`` / ``DELETE``, the strategy
write-back, ``assign_confidences`` and the one-row spellings all land in
them, and so do crash recovery and a replica replaying their records).
Three things are pinned here:

* the mutators' contract — validate everything, then change everything;
* atomicity end to end — a statement refused on its last row leaves
  table, MVCC snapshot, WAL and replica exactly as they were, and no
  later commit, recovery or replica ever shows a row of it;
* the work — counts, not timings: a *k*-row statement is 1 record, 1
  ``data_version`` bump and 1 checksum pass over the payload on each side
  of the wire; an UPDATE's record follows *k* and the assigned columns
  only.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cost import LinearCost
from repro.errors import (
    InvalidConfidenceError,
    PlanError,
    ReproError,
    SchemaError,
    TypeMismatchError,
)
from repro.policy import PolicyStore
from repro.server import Replica
from repro.server.mvcc import MVCCDatabase
from repro.sql import execute_dml, parse_command
from repro.storage import INTEGER, REAL, TEXT, Column, Database, Schema, TupleId
from repro.storage.durability import (
    checksum,
    database_fingerprints,
    recover,
    scan_wal,
)
from repro.storage.durability.recovery import WAL_FILE
from tests.error_codes import raises_code

_SCHEMA = Schema(
    [
        Column("k", INTEGER, nullable=False),
        Column("name", TEXT),
        Column("v", REAL),
    ]
)


def _table(db: Database, rows: int = 6):
    table = db.create_table("t", _SCHEMA)
    for i in range(rows):
        table.insert(
            [i, f"row{i}", float(i)], confidence=0.5, cost_model=LinearCost(1.0, 0.9)
        )
    return table


def _state(table) -> list:
    return [(row.tid.ordinal, row.values, row.confidence) for row in table.scan()]


# -- the mutator --------------------------------------------------------------


class TestUpdateRows:
    def test_assigned_columns_and_confidence_change_together(self):
        table = _table(Database())
        version = table.data_version
        table.update_rows([1, 4], [2, 0], [[10, 40], [11, 44]], [0.6, 0.7])
        assert table.data_version == version + 1
        assert _state(table)[1] == (1, (11, "row1", 10.0), 0.6)  # int → REAL
        assert _state(table)[4] == (4, (44, "row4", 40.0), 0.7)
        assert _state(table)[0] == (0, (0, "row0", 0.0), 0.5)

    def test_uniform_confidence_and_no_columns(self):
        table = _table(Database())
        table.update_rows([0, 2], confidence=0.25)
        assert [c for _o, _v, c in _state(table)] == [0.25, 0.5, 0.25, 0.5, 0.5, 0.5]

    def test_no_rows_is_no_mutation(self):
        table = _table(Database())
        version = table.data_version
        table.update_rows([], [0], [[]], 0.1)
        assert table.data_version == version

    @pytest.mark.parametrize(
        "arguments, error",
        [
            # A string is the code of a ReproError.
            (([0, 99], [0], [[1, 2]]), "UnknownTupleError"),
            (([0, 1], [0], [[1, None]]), SchemaError),  # NOT NULL on row 2
            (([0, 1], [0], [[1, "x"]]), SchemaError),  # type on row 2
            (([0, 1], [0], [[1]]), SchemaError),  # ragged column
            (([0, 1], [7], [[1, 2]]), SchemaError),  # no such position
            (([0, 1], [0], [[1, 2]], [0.6, 0.95]), InvalidConfidenceError),  # cap
            (([0, 1], [0], [[1, 2]], 1.5), InvalidConfidenceError),
            (([0, 1], [0], [[1, 2]], [0.6]), SchemaError),
        ],
    )
    def test_a_rejected_row_changes_nothing(self, arguments, error):
        table = _table(Database())
        before, version = _state(table), table.data_version
        code = error if isinstance(error, str) else None
        with raises_code(ReproError if code else error, code):
            table.update_rows(*arguments)
        assert _state(table) == before and table.data_version == version

    def test_only_assigned_indexed_columns_are_reindexed(self):
        """``lookup`` follows the assigned values (the name predates the
        removal of hash indexes, whose maintenance this once counted)."""
        table = _table(Database())
        table.update_rows([0, 1, 2], [2], [[7.0, 8.0, 9.0]])
        table.update_rows([0, 1], [1], [["a", "a"]])  # name only
        assert [row.tid.ordinal for row in table.lookup("name", "a")] == [0, 1]
        assert table.lookup("name", "row0") == []

    def test_one_journal_record_with_the_stored_values(self):
        table = _table(Database())
        journal: list[dict] = []
        table._journal = journal.append
        table.update_rows([3, 5], [2], [[1, 2]], 0.75)
        table.update_rows([3], confidence=[0.8])
        assert journal == [
            {
                "op": "update_rows", "table": "t", "ordinals": [3, 5],
                "columns": [2], "values": [[1.0, 2.0]], "confidence": 0.75,
            },
            {
                "op": "update_rows", "table": "t", "ordinals": [3],
                "columns": [], "values": [], "confidence": [0.8],
            },
        ]


class TestInsertAndDeleteRows:
    def test_rows_enter_together_with_one_or_per_row_confidence(self):
        table = _table(Database(), rows=1)
        version = table.data_version
        tids = table.insert_rows(
            [[7, "a", 1], [8, None, None]], [0.25, 0.75], LinearCost(1.0, 0.9)
        )
        assert tids == [TupleId("t", 1), TupleId("t", 2)]
        assert table.data_version == version + 1
        assert _state(table)[1:] == [
            (1, (7, "a", 1.0), 0.25), (2, (8, None, None), 0.75)  # int → REAL
        ]
        assert table.get(tids[1]).max_confidence == 0.9
        assert table.insert_rows([[9, "c", 2.0]], 0.5) == [TupleId("t", 3)]
        assert table.insert_rows([]) == [] and table.data_version == version + 2

    @pytest.mark.parametrize(
        "arguments, error",
        [
            (([[7, "a", 1.0], [None, "b", 2.0]],), SchemaError),  # NOT NULL
            (([[7, "a", 1.0], [8, "b", "x"]],), TypeMismatchError),
            (([[7, "a", 1.0], [8, "b"]],), SchemaError),  # arity
            (([[7, "a", 1.0], [8, "b", 2.0]], [0.5, 0.95]), InvalidConfidenceError),
            (([[7, "a", 1.0], [8, "b", 2.0]], 1.5), InvalidConfidenceError),
            (([[7, "a", 1.0], [8, "b", 2.0]], [0.5]), SchemaError),
        ],
    )
    def test_a_rejected_last_row_inserts_nothing(self, arguments, error):
        table = _table(Database())
        before, version = _state(table), table.data_version
        journal: list[dict] = []
        table._journal = journal.append
        with pytest.raises(error):
            table.insert_rows(*arguments, cost_model=LinearCost(1.0, 0.9))
        assert _state(table) == before and table.data_version == version
        assert journal == []
        assert table.insert([7, "a", 1.0]) == TupleId("t", 6)  # no ordinal burnt

    def test_rows_leave_together_or_not_at_all(self):
        table = _table(Database())
        before, version = _state(table), table.data_version
        with raises_code(ReproError, "UnknownTupleError"):
            table.delete_rows([1, 99])
        assert _state(table) == before and table.data_version == version
        table.delete_rows([4, 1, 4])
        assert [o for o, _v, _c in _state(table)] == [0, 2, 3, 5]
        assert table.data_version == version + 1
        table.delete_rows([])
        assert table.data_version == version + 1

    def test_one_hand_off_per_mutation_of_the_per_row_ops(self):
        table = _table(Database(), rows=2)
        journal: list[dict] = []
        table._journal = journal.append
        table.insert_rows([[7, "a", 1.0]], 0.5)
        table.insert_rows([[8, "b", 2.0], [9, "c", 3.0]], 0.5)
        table.delete_rows([0])
        table.delete_rows([2, 3])
        # One hand-off each: a ``batch`` of the per-row ops older logs hold
        # (the journal writes a batch of one as the bare op).
        assert [op["op"] for op in journal] == ["batch"] * 4
        assert [
            [(sub["op"], sub["ordinal"]) for sub in op["ops"]] for op in journal
        ] == [
            [("insert", 2)],
            [("insert", 3), ("insert", 4)],
            [("delete", 0)],
            [("delete", 2), ("delete", 3)],
        ]
        assert journal[2]["ops"] == [{"op": "delete", "table": "t", "ordinal": 0}]

    def test_the_one_row_spellings_are_row_sets_of_one(self):
        table = _table(Database(), rows=3)
        journal: list[dict] = []
        table._journal = journal.append
        table.update(TupleId("t", 1), [11, "x", 5])
        table.set_confidence(TupleId("t", 2), 0.75)
        table.delete(TupleId("t", 0))
        assert journal == [
            {
                "op": "update_rows", "table": "t", "ordinals": [1],
                "columns": [0, 1, 2], "values": [[11], ["x"], [5.0]],
                "confidence": None,
            },
            {
                "op": "update_rows", "table": "t", "ordinals": [2],
                "columns": [], "values": [], "confidence": 0.75,
            },
            {"op": "batch", "ops": [{"op": "delete", "table": "t", "ordinal": 0}]},
        ]
        for call, error, code in [
            (lambda: table.update(TupleId("t", 1), [11, "x"]), SchemaError, None),
            (
                lambda: table.update(TupleId("u", 1), [11, "x", 5.0]),
                ReproError,
                "UnknownTupleError",
            ),
            (
                lambda: table.set_confidence(TupleId("t", 1), 0.95),
                InvalidConfidenceError,
                None,
            ),
            (lambda: table.delete(TupleId("t", 0)), ReproError, "UnknownTupleError"),
        ]:
            with raises_code(error, code):
                call()
        assert len(journal) == 3


# -- a cluster without threads: frames are handed over by hand ---------------


def _policies() -> PolicyStore:
    policies = PolicyStore(default_threshold=0.0)
    policies.add_role("Manager")
    policies.add_purpose("ops")
    policies.add_user("bob", roles=["Manager"])
    policies.add_policy("Manager", "ops", 0.0)
    return policies


class _Pair:
    """A durable primary behind MVCC and a durable, never-started replica.

    ``ship()`` plays the pull loop: every frame the primary's manager
    committed since the last call goes through ``Replica._apply_frame``.
    """

    def __init__(self, root) -> None:
        self.primary_dir = str(root / "primary")
        self.db = Database.open(self.primary_dir)
        self.mvcc = MVCCDatabase(self.db)
        self.frames: list[tuple[int, bytes]] = []
        self.db._durability.add_commit_listener(
            lambda seq, payload: self.frames.append((seq, payload))
        )
        self.replica = Replica(
            ["127.0.0.1:1"], _policies(), data_dir=str(root / "replica")
        )
        self._shipped = 0

    def run(self, sql: str):
        command = parse_command(sql)
        return self.mvcc.commit(lambda db: execute_dml(db, command))

    def ship(self) -> list[bytes]:
        fresh = self.frames[self._shipped:]
        self._shipped = len(self.frames)
        for seq, payload in fresh:
            self.replica._apply_frame(seq, payload)
        return [payload for _seq, payload in fresh]

    def wal_bytes(self) -> int:
        return os.path.getsize(os.path.join(self.primary_dir, WAL_FILE))

    def close(self) -> None:
        self.replica.stop()
        self.db.close()


@pytest.fixture
def pair(tmp_path):
    pair = _Pair(tmp_path)
    try:
        yield pair
    finally:
        pair.close()


def _seed(pair: _Pair, rows: int, wide: int = 0) -> None:
    pair.run(
        "CREATE TABLE t (k INT NOT NULL, name TEXT, v REAL, note TEXT)"
    )
    note = "n" * wide
    values = ", ".join(f"({i}, 'row{i}', {i}.0, '{note}')" for i in range(rows))
    pair.run(f"INSERT INTO t VALUES {values} WITH CONFIDENCE 0.5")
    pair.ship()


_GOOD_ROWS = "(10, 'a', 1.0, ''), (11, 'b', 2.0, '')"


def test_a_failing_multi_row_update_changes_nothing_anywhere(pair):
    """Row 0..2 are fine, row 3 assigns NULL to a NOT NULL column.  Before
    ``update_rows`` rows 0..2 stayed changed *and* were journaled."""
    _refused_statement_changes_nothing_anywhere(
        pair,
        "UPDATE t SET k = CASE WHEN k >= 3 THEN NULL ELSE k + 100 END, "
        "v = v + 1 WITH CONFIDENCE 0.9",
        SchemaError,
    )


@pytest.mark.parametrize(
    "sql, error, code",
    [
        (f"INSERT INTO t VALUES {_GOOD_ROWS}, (NULL, 'c', 3.0, '')", SchemaError, None),
        (
            f"INSERT INTO t VALUES {_GOOD_ROWS}, (12, 'c', 'zzz', '')",
            TypeMismatchError,
            None,
        ),
        (f"INSERT INTO t VALUES {_GOOD_ROWS}, (12)", ReproError, "SqlError"),
        (
            f"INSERT INTO t VALUES {_GOOD_ROWS} WITH CONFIDENCE 1.5",
            ReproError,
            "SqlError",
        ),
    ],
    ids=["not-null", "type", "arity", "confidence"],
)
def test_a_multi_row_insert_refused_on_its_last_row_changes_nothing_anywhere(
    pair, sql, error, code
):
    """Two good rows, then what the statement is refused for.  At the
    parent commit the first three cases kept the two good rows: journaled
    (``last_seq`` moved), invisible until the next commit published them,
    then recovered and replicated."""
    _refused_statement_changes_nothing_anywhere(pair, sql, error, code)


@pytest.mark.parametrize(
    "sql",
    [
        "UPDATE t SET v = v + 1 WHERE k IN (SELECT k FROM t WHERE v > 2)",
        "DELETE FROM t WHERE k < 4 AND k NOT IN (SELECT k FROM t)",
        "DELETE FROM t WHERE NOT (k IN (SELECT k FROM t))",
        "UPDATE t SET note = CASE WHEN k IN (SELECT k FROM t) THEN 'x' END",
    ],
    ids=["update-in", "delete-not-in", "delete-nested", "update-set"],
)
def test_a_subquery_in_dml_is_refused_as_what_it_is(pair, sql):
    """DML has no semi-join rewrite.  At the parent commit the top-level
    conjunct of the first statement reached ``InSubquery.bind`` and was
    refused as "only supported as a top-level WHERE conjunct"."""
    refusal = _refused_statement_changes_nothing_anywhere(pair, sql, PlanError)
    assert str(refusal).startswith(
        f"{sql.split()[0]}: subqueries are not supported in DML statements"
    )


def _refused_statement_changes_nothing_anywhere(pair, sql, error, code=None):
    """Returns the refusal, for callers that pin its text."""
    _seed(pair, 6)
    live_before = _state(pair.db.table("t"))
    prints_before = database_fingerprints(pair.db)
    seq_before, wal_before = pair.mvcc.current_seq, pair.wal_bytes()
    last_seq_before = pair.db._durability.last_seq
    version_before = pair.db.table("t").data_version

    with raises_code(error, code) as refusal:
        pair.run(sql)

    assert _state(pair.db.table("t")) == live_before
    assert pair.db.table("t").data_version == version_before
    assert pair.wal_bytes() == wal_before and pair.ship() == []
    assert pair.db._durability.last_seq == last_seq_before
    assert pair.mvcc.current_seq == seq_before
    with pair.mvcc.snapshot() as snapshot:
        assert database_fingerprints(snapshot.db) == prints_before
    assert database_fingerprints(pair.replica._db) == prints_before
    # The next, unrelated commit goes through as if nothing had happened —
    # and publishes, journals and ships no row of the refused statement.
    assert pair.run("UPDATE t SET v = v + 1 WHERE k < 3").rows_affected == 3
    assert pair.db._durability.last_seq == last_seq_before + 1
    assert len(pair.ship()) == 1
    expected = [(o, (k, n, v + 1 if k < 3 else v, x), c)
                for o, (k, n, v, x), c in live_before]
    with pair.mvcc.snapshot() as snapshot:
        assert _state(snapshot.db.table("t")) == expected
    assert _state(pair.replica._db.table("t")) == expected
    assert _state(recover(pair.primary_dir)[0].table("t")) == expected
    return refusal.value


@pytest.mark.parametrize(
    "verb, k",
    [(verb, k) for verb in ("UPDATE", "DELETE") for k in (1, 40, 200)],
    ids=["1", "40", "200", "DELETE-1", "DELETE-40", "DELETE-200"],
)
def test_a_k_row_update_is_one_record_one_bump_one_checksum_pass(
    pair, count_calls, verb, k
):
    rows, wide = 250, 300
    _seed(pair, rows, wide)
    primary_table = pair.db.table("t")
    replica_table = pair.replica._db.table("t")
    versions = primary_table.data_version, replica_table.data_version
    records_before = len(pair.frames)
    sliced = count_calls(checksum, "_crc_sliced")

    result = pair.run(
        f"UPDATE t SET v = v + 1 WHERE k < {k} WITH CONFIDENCE 0.25"
        if verb == "UPDATE"
        else f"DELETE FROM t WHERE k < {k}"
    )
    primary_passes, sliced[0] = sliced[0], 0
    (payload,) = pair.ship()
    replica_passes = sliced[0]

    assert result.rows_affected == k
    assert result.tuple_ids == tuple(TupleId("t", i) for i in range(k))
    assert len(pair.frames) == records_before + 1
    record = json.loads(payload)
    if verb == "UPDATE":
        # The record is the row-set itself — no batch around it.
        assert record["op"] == "update_rows" and record["ordinals"] == list(range(k))
        assert record["columns"] == [2] and record["confidence"] == 0.25
        # Linear in k, in the assigned column only: ≤ 4 B of ordinal and
        # ≤ 6 B of REAL per row, commas included.
        assert len(payload) <= 128 + 10 * k
        replica_bumps = 1
    else:
        # The per-row ``delete`` ops older logs hold, as one record: bare
        # for one row, else one ``batch`` (a replica replays it op by op).
        ops = [record] if k == 1 else record["ops"]
        assert record["op"] == ("delete" if k == 1 else "batch")
        assert [(op["op"], op["ordinal"]) for op in ops] == [
            ("delete", i) for i in range(k)
        ]
        replica_bumps = k
    # The 300-byte ``note`` of every row (what a whole-tuple record would
    # carry) is nowhere in it.
    assert b"nnn" not in payload
    # One version bump on the primary — the statement was one mutation ...
    assert primary_table.data_version == versions[0] + 1
    assert replica_table.data_version == versions[1] + replica_bumps
    # ... and one pass of the checksum over the payload on each side (the
    # sliced kernel only runs for payloads ≥ 512 B; the 8-byte header
    # checksum never reaches it).
    expected = 1 if len(payload) >= checksum._SLICE_THRESHOLD else 0
    assert (primary_passes, replica_passes) == (expected, expected)
    if k == 200:
        assert expected == 1
    assert database_fingerprints(pair.replica._db) == database_fingerprints(pair.db)
    assert pair.replica._recent_digests[-1] == (
        pair.frames[-1][0], checksum.crc32c(payload)
    )


def test_an_in_memory_replica_still_digests_each_frame_once(tmp_path, count_calls):
    pair = _Pair(tmp_path)
    memory = Replica(["127.0.0.1:1"], _policies())  # no data_dir, no WAL
    try:
        _seed(pair, 250, 50)
        for seq, payload in pair.frames:
            memory._apply_frame(seq, payload)
        sliced = count_calls(checksum, "_crc_sliced")
        pair.run("UPDATE t SET v = 0 WHERE k < 200")
        sliced[0] = 0
        seq, payload = pair.frames[-1]
        memory._apply_frame(seq, payload)
        assert len(payload) >= checksum._SLICE_THRESHOLD and sliced[0] == 1
        assert memory._recent_digests[-1] == (seq, checksum.crc32c(payload))
        assert database_fingerprints(memory._db) == database_fingerprints(pair.db)
    finally:
        memory.stop()
        pair.close()


def test_a_write_back_is_one_record_of_one_row_set_per_table(pair):
    _seed(pair, 6)
    pair.run("CREATE TABLE u (k INT)")
    pair.run("INSERT INTO u VALUES (1), (2) WITH CONFIDENCE 0.1")
    pair.ship()
    records_before = len(pair.frames)
    pair.mvcc.commit(
        lambda db: db.apply_confidences(
            {TupleId("t", 4): 0.8, TupleId("u", 1): 0.9, TupleId("t", 0): 0.7}
        )
    )
    (payload,) = pair.ship()
    assert len(pair.frames) == records_before + 1
    record = json.loads(payload)
    assert record["op"] == "batch"
    assert [
        (sub["op"], sub["table"], sub["ordinals"], sub["confidence"])
        for sub in record["ops"]
    ] == [
        ("update_rows", "t", [4, 0], [0.8, 0.7]),
        ("update_rows", "u", [1], [0.9]),
    ]
    assert database_fingerprints(pair.replica._db) == database_fingerprints(pair.db)
    recovered = [json.loads(p) for p in scan_wal(
        os.path.join(pair.primary_dir, WAL_FILE)
    ).payloads]
    assert recovered[-1] == record
