"""Property tests for delta-proportional MVCC publication.

A commit publishes a :class:`SnapshotTable` patched from the previous
one at the rows the live table recorded as changed.  Whatever the
history, that must be indistinguishable from copying the whole table:

* **Equivalence** — after every publish the new snapshot equals a
  from-scratch full copy (scan order, ``rows``, ``get``, ``lookup``,
  ``len``, confidences, ``column_data`` — with the previous column cache
  built and unbuilt); and ``lookup`` on the live table, on the snapshot
  and the scan-order filter are one list, order included, whatever
  ``insert`` / ``update_rows`` / ``delete`` came before;
* **Immutability** — every snapshot still pinned, and the previous
  generation, is bit-unchanged and holds the very same row objects;
* **Sharing** — rows the commit did not touch are the previous
  generation's objects, and no snapshot row aliases a live row;
* **Fallbacks** — a failed commit's leftovers, mutations behind the
  wrapper, a second wrapper over the same database, bulk rewrites and a
  recreated table all end in a correct snapshot, never a stale one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.server.mvcc import MVCCDatabase, SnapshotTable
from repro.storage import Database, INTEGER, REAL, Schema, TEXT
from repro.storage.tuples import TupleId
from tests.error_codes import raises_code

_SCHEMA = Schema.of(("k", INTEGER), ("name", TEXT), ("v", REAL))
_KEYS = st.integers(-3, 3)
_CONFIDENCES = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
_POSITIONS = st.integers(0, 10_000)

_mutations = st.one_of(
    st.tuples(st.just("insert"), _KEYS),
    st.tuples(st.just("update"), _POSITIONS, _KEYS),
    st.tuples(
        st.just("update_rows"),
        st.lists(_POSITIONS, min_size=1, max_size=4),
        _KEYS,
    ),
    st.tuples(st.just("delete"), _POSITIONS),
    st.tuples(st.just("set_confidence"), _POSITIONS, _CONFIDENCES),
    st.tuples(
        st.just("apply_confidences"),
        st.lists(st.tuples(_POSITIONS, _CONFIDENCES), max_size=4),
    ),
    st.tuples(st.just("assign_confidences"), _CONFIDENCES),
    st.tuples(st.just("recreate"), st.integers(0, 4)),
)
_steps = st.one_of(
    st.tuples(st.just("commit"), st.lists(_mutations, max_size=4)),
    st.tuples(st.just("fail"), st.lists(_mutations, max_size=3)),
    st.tuples(st.just("behind"), st.lists(_mutations, min_size=1, max_size=3)),
    st.tuples(st.just("other"), st.lists(_mutations, min_size=1, max_size=2)),
    st.tuples(st.just("pin")),
    st.tuples(st.just("release"), _POSITIONS),
    st.tuples(st.just("columns")),
)


def _database(rows: int) -> Database:
    db = Database("delta")
    table = db.create_table("t", _SCHEMA)
    for i in range(rows):
        table.insert([i % 7 - 3, f"row{i}", float(i)], confidence=0.5)
    db.create_table("u", Schema.of(("k", INTEGER))).insert([1])
    return db


def _mutate(db: Database, mutation: tuple) -> "set[int] | None":
    """Apply one mutation to the live ``t``.

    Returns the ordinals it touched, or None for "every row".
    """
    kind, *args = mutation
    table = db.table("t")
    stored = list(table.scan())

    def pick(position: int):
        return stored[position % len(stored)]

    if kind == "insert":
        (key,) = args
        return {table.insert([key, f"k{key}", float(key)], 0.5).ordinal}
    if kind == "recreate":
        (count,) = args
        db.drop_table("t")
        fresh = db.create_table("t", _SCHEMA)
        for i in range(count):
            fresh.insert([i, "again", float(i)], confidence=0.25)
        return None
    if kind == "assign_confidences":
        (confidence,) = args
        table.assign_confidences(lambda row: confidence)
        return None
    if not stored:
        return set()
    if kind == "update":
        position, key = args
        row = pick(position)
        table.update(row.tid, [key, row.values[1] + "'", float(key)])
        return {row.tid.ordinal}
    if kind == "update_rows":
        positions, key = args
        # Distinct, in the generated (not scan) order: statement order.
        ordinals = list(dict.fromkeys(pick(p).tid.ordinal for p in positions))
        table.update_rows(ordinals, [0], [[key] * len(ordinals)])
        return set(ordinals)
    if kind == "delete":
        row = pick(args[0])
        table.delete(row.tid)
        return {row.tid.ordinal}
    if kind == "set_confidence":
        position, confidence = args
        row = pick(position)
        table.set_confidence(row.tid, confidence)
        return {row.tid.ordinal}
    assert kind == "apply_confidences"
    updates = {pick(position).tid: value for position, value in args[0]}
    db.apply_confidences(updates)
    return {tid.ordinal for tid in updates}


def _state(table) -> list:
    return [
        (row.tid, row.values, row.confidence, row.cost_model)
        for row in table.scan()
    ]


def _assert_equals_full_copy(snapshot: SnapshotTable, db: Database) -> None:
    # The reference is cut from a clone, so building it does not drain
    # the live table's change set (which would hide the delta path).
    reference = SnapshotTable(db.clone().table("t"))
    live = db.table("t")
    assert snapshot.schema is live.schema
    assert _state(snapshot) == _state(reference)
    assert snapshot.rows() == reference.rows()
    assert len(snapshot) == len(reference)
    assert snapshot.column_data() == reference.column_data()
    for row in snapshot.scan():
        assert snapshot.get(row.tid) is row
        assert snapshot.confidence_of(row.tid) == live.confidence_of(row.tid)
        assert row is not live.get(row.tid)
    with raises_code(ReproError, "UnknownTupleError"):
        snapshot.get(TupleId("t", 1_000_000))
    for key in range(-3, 4):
        in_scan_order = [
            row.tid for row in live.scan() if row.values[0] == key
        ]
        for table in (snapshot, reference, live):
            assert [row.tid for row in table.lookup("k", key)] == in_scan_order


class _Frozen:
    """A pinned snapshot plus everything it showed when it was pinned."""

    def __init__(self, snapshot) -> None:
        self.snapshot = snapshot
        table = snapshot.db.table("t")
        self.table = table
        self.state = _state(table)
        self.identities = [id(row) for row in table.scan()]
        cache = table._column_cache
        self.columns = (
            None
            if cache is None
            else ([list(column) for column in cache[0]], list(cache[1]))
        )

    def assert_unchanged(self) -> None:
        table = self.snapshot.db.table("t")
        assert table is self.table
        assert _state(table) == self.state
        assert [id(row) for row in table.scan()] == self.identities
        if self.columns is not None:
            columns, tids = table.column_data()
            assert [list(column) for column in columns] == self.columns[0]
            assert tids == self.columns[1]


@given(rows=st.integers(0, 12), steps=st.lists(_steps, max_size=25))
@settings(max_examples=150, deadline=None)
def test_delta_publication_equals_a_full_copy(rows, steps):
    db = _database(rows)
    mvcc = MVCCDatabase(db)
    other = None  # a second wrapper over the same database, made lazily
    pinned: "list[_Frozen]" = []
    # What moved on the live table since `mvcc` last published: ordinals,
    # or None once the delta can no longer be expected to apply.
    touched: "set[int] | None" = set()

    def note(result: "set[int] | None") -> None:
        nonlocal touched
        touched = None if result is None or touched is None else touched | result

    def apply_all(target: Database, mutations) -> None:
        for mutation in mutations:
            note(_mutate(target, mutation))

    def publish(mutations, fail: bool = False) -> None:
        nonlocal touched
        previous = _Frozen(mvcc.snapshot())

        def body(target: Database) -> None:
            apply_all(target, mutations)
            if target.table("t")._changed is None:
                note(None)  # over half the table: a full copy
            if fail:
                raise RuntimeError("half-way")

        if fail:
            with pytest.raises(RuntimeError):
                mvcc.commit(body)
            assert mvcc.current_seq == previous.snapshot.seq
            previous.snapshot.release()
            return
        mvcc.commit(body)
        with mvcc.snapshot() as current:
            table = current.db.table("t")
            _assert_equals_full_copy(table, db)
            assert current.db.table("u") is previous.snapshot.db.table("u")
            previous.assert_unchanged()
            if touched is not None:
                before = {row.tid: row for row in previous.table.scan()}
                for row in table.scan():
                    if row.tid in before and row.tid.ordinal not in touched:
                        assert row is before[row.tid]
                if previous.columns is not None and table is not previous.table:
                    # carried over, and as its own lists
                    assert table._column_cache is not None
                    for ours, theirs in zip(
                        table.column_data()[0],
                        previous.table.column_data()[0],
                    ):
                        assert ours is not theirs
        previous.snapshot.release()
        touched = set()

    for step in steps:
        kind, *args = step
        if kind == "commit":
            publish(args[0])
        elif kind == "fail":
            publish(args[0], fail=True)
        elif kind == "behind":
            apply_all(db, args[0])  # behind the wrapper's back...
            publish([])  # ...and the next commit must still get it right
        elif kind == "other":
            if other is None:
                other = MVCCDatabase(db)
                note(None)  # its first generation drained the change set
            other.commit(lambda target: apply_all(target, args[0]))
            note(None)
            with other.snapshot() as seen:
                _assert_equals_full_copy(seen.db.table("t"), db)
            publish([])
        elif kind == "pin":
            pinned.append(_Frozen(mvcc.snapshot()))
        elif kind == "release":
            if pinned:
                pinned.pop(args[0] % len(pinned)).snapshot.release()
        else:
            assert kind == "columns"
            with mvcc.snapshot() as current:
                current.db.table("t").column_data()
        for frozen in pinned:
            frozen.assert_unchanged()

    for frozen in pinned:
        frozen.snapshot.release()
    assert mvcc.generation_seqs() == [mvcc.current_seq]


@given(
    rows=st.integers(4, 60),  # below that a full copy is the cheaper cut
    kind=st.sampled_from(["insert", "update", "delete", "set_confidence"]),
    position=_POSITIONS,
    columns_built=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_one_row_commit_constructs_one_snapshot_row(
    rows, kind, position, columns_built
):
    db = _database(rows)
    mvcc = MVCCDatabase(db)
    first = mvcc.snapshot()
    if columns_built:
        first.db.table("t").column_data()
    mutation = {
        "insert": ("insert", 2),
        "update": ("update", position, 2),
        "delete": ("delete", position),
        "set_confidence": ("set_confidence", position, 0.9),
    }[kind]
    mvcc.commit(lambda target: _mutate(target, mutation))
    second = mvcc.snapshot()
    old = {id(row) for row in first.db.table("t").scan()}
    fresh = [row for row in second.db.table("t").scan() if id(row) not in old]
    assert len(fresh) == (0 if kind == "delete" else 1)
    assert len(second.db.table("t")) == rows + {"insert": 1, "delete": -1}.get(
        kind, 0
    )
    _assert_equals_full_copy(second.db.table("t"), db)
    first.release()
    second.release()
