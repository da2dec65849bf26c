"""MVCC over the storage engine: copy-on-write table generations.

The WAL already assigns every committed mutation a monotonically
increasing ``seq``; this module turns that sequence into a version
authority for snapshot isolation:

* a **generation** is an immutable copy of the database state, keyed by
  the WAL ``seq`` it is current *as of* (in-memory databases use an
  internal commit counter instead);
* :meth:`MVCCDatabase.snapshot` pins the current generation and returns
  a :class:`Snapshot` — a read-only :class:`SnapshotDatabase` view whose
  tables never change, no matter what writers commit afterwards;
* writers serialize through :meth:`MVCCDatabase.commit`: the mutation
  runs against the live :class:`~repro.storage.database.Database` inside
  one durability batch, and a fresh generation is published on success.
  Publication is copy-on-write per *row*: a table whose
  :attr:`~repro.storage.table.Table.data_version` did not move is shared
  with the previous generation as a whole; a table that moved gets a
  new :class:`SnapshotTable` that shares every unchanged row object
  with the previous one and copies only the rows the live table
  recorded as touched (:meth:`~repro.storage.table.Table.drain_changes`),
  so a commit costs O(rows it changed) plus a pointer-level list copy.
  Whenever the recorded changes do not lead exactly from the previous
  snapshot to now — first generation, a recreated table, a second
  wrapper draining the same table, a bulk rewrite — the same constructor
  copies the whole table instead;
* readers never block writers (they hold no storage locks at all — a
  pinned generation is plain immutable data) and writers never block
  readers; generations are garbage-collected as soon as no snapshot pins
  them and a newer one is current.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, TypeVar

from ..errors import ReproError, SchemaError, ServerError
from ..obs import get_metrics
from ..storage.database import Database
from ..storage.schema import Schema
from ..storage.table import Table
from ..storage.tuples import ColumnView, StoredTuple, TupleId, column_view

__all__ = ["MVCCDatabase", "Snapshot", "SnapshotDatabase", "SnapshotTable"]

T = TypeVar("T")


def _refused(operation: str):
    """The mutator *operation* as a snapshot view has it: a refusal."""

    def refuse(self, *args, **kwargs):
        self._readonly(operation)

    return refuse


class SnapshotTable:
    """An immutable copy of one table at one generation.

    Mirrors the read surface of :class:`~repro.storage.table.Table`
    (``scan``/``column_data``/``lookup``/``get``/``len``/``schema``) so
    the SQL planner and both engines run against it unchanged.  Rows are
    *copies* of the live :class:`StoredTuple` objects — confidence
    write-backs on the live table cannot leak into a pinned snapshot.
    Mutating methods raise ``SnapshotWriteError``.

    Given the *previous* snapshot of the same live table, only the rows
    changed since then are copied: the previous row list, ordinal map and
    (if built) column cache are shallow-copied — never patched in place,
    a pinned generation must not move — and the copies are patched at the
    changed ordinals.  Unchanged rows are the previous snapshot's own,
    already immutable, objects.
    """

    def __init__(
        self, source: Table, previous: "SnapshotTable | None" = None
    ) -> None:
        self._name = source.name
        self._schema = source.schema
        self._source = source
        self._column_cache: (
            tuple[ColumnView, list[TupleId]] | None
        ) = None
        self._column_lock = threading.Lock()
        since = (
            previous.data_version
            if previous is not None and previous._source is source
            else None
        )
        # One locked cut of the live table: version and row copies belong
        # together even while writers run.
        self.data_version, changed, complete = source.drain_changes(since)
        if complete:
            self._rows: dict[int, StoredTuple] = changed
            self._rows_sorted = list(changed.values())
            return
        self._rows = dict(previous._rows)
        self._rows_sorted = list(previous._rows_sorted)
        cache = previous._column_cache
        if cache is not None:
            columns, tids = cache
            cache = (ColumnView(list(column) for column in columns), list(tids))
            self._column_cache = cache
        for ordinal in sorted(changed):
            self._patch(ordinal, changed[ordinal], cache)

    def _patch(
        self,
        ordinal: int,
        row: StoredTuple | None,
        cache: tuple[ColumnView, list[TupleId]] | None,
    ) -> None:
        """Replace, remove (*row* None) or add the row at *ordinal*."""
        rows = self._rows_sorted
        known = ordinal in self._rows
        if row is None and not known:
            return  # inserted and deleted again since the previous snapshot
        if not rows or ordinal > rows[-1].tid.ordinal:
            position = len(rows)  # the common insert: a fresh ordinal
        else:
            position = bisect_left(
                rows, ordinal, key=lambda stored: stored.tid.ordinal
            )
        if row is None:
            del self._rows[ordinal]
            del rows[position]
        else:
            self._rows[ordinal] = row
            if known:
                rows[position] = row
            else:
                rows.insert(position, row)
        if cache is not None:
            columns, tids = cache
            if row is None:
                del tids[position]
                for column in columns:
                    del column[position]
            elif known:
                for column, value in zip(columns, row.values):
                    column[position] = value
            else:
                tids.insert(position, row.tid)
                for column, value in zip(columns, row.values):
                    column.insert(position, value)

    # -- metadata (Table surface) ----------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        return len(self._rows_sorted)

    def is_cut_of(self, table: Table) -> bool:
        """True when this is still *table*'s current state.

        Identity matters as much as the version: a table dropped and
        recreated under the same name can reach the same version number.
        """
        return (
            self._source is table
            and self.data_version == table.data_version
        )

    # -- reading ----------------------------------------------------------

    def scan(self) -> Iterator[StoredTuple]:
        return iter(self._rows_sorted)

    def __iter__(self) -> Iterator[StoredTuple]:
        return self.scan()

    def rows(self) -> list[tuple[Any, ...]]:
        return [row.values for row in self._rows_sorted]

    def get(self, tid: TupleId) -> StoredTuple:
        if tid.table != self._name or tid.ordinal not in self._rows:
            raise ReproError(
                f"no tuple {tid} in snapshot of table {self._name!r}",
                code="UnknownTupleError",
            )
        return self._rows[tid.ordinal]

    def confidence_of(self, tid: TupleId) -> float:
        return self.get(tid).confidence

    column_confidences = Table.column_confidences

    def column_data(self) -> tuple[ColumnView, list[TupleId]]:
        cache = self._column_cache
        if cache is None:
            with self._column_lock:
                cache = self._column_cache
                if cache is None:
                    cache = column_view(self._rows_sorted, len(self._schema))
                    self._column_cache = cache
        return cache

    lookup = Table.lookup

    # -- mutation is forbidden --------------------------------------------

    def _readonly(self, operation: str):
        raise ServerError(
            f"cannot {operation} on snapshot of table {self._name!r}: "
            f"snapshots are immutable; commit through MVCCDatabase.commit",
            code="SnapshotWriteError",
        )

    insert = _refused("insert")
    delete = _refused("delete")
    update = _refused("update")
    set_confidence = _refused("set_confidence")
    insert_rows = _refused("insert_rows")
    delete_rows = _refused("delete_rows")
    update_rows = _refused("update_rows")
    assign_confidences = _refused("assign_confidences")

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"SnapshotTable({self._name!r}, {len(self)} rows)"


class _Generation:
    """One immutable database state: {table name: SnapshotTable} + views."""

    __slots__ = ("seq", "tables", "views", "table_versions")

    def __init__(
        self,
        seq: int,
        tables: dict[str, SnapshotTable],
        views: dict[str, str],
    ) -> None:
        self.seq = seq
        self.tables = tables
        self.views = views
        self.table_versions = {
            name: table.data_version for name, table in tables.items()
        }


class SnapshotDatabase:
    """Read-only :class:`Database` view over one pinned generation.

    Duck-types the read surface the SQL layer, the lineage engine, and
    policy enforcement use (``table``/``resolve``/``confidences``/
    ``view_definition``...).  DDL/DML raise
    ``SnapshotWriteError``.
    """

    def __init__(
        self, generation: _Generation, name: str, durable: bool, plan_cache
    ) -> None:
        self._generation = generation
        self.name = name
        self._durable = durable
        #: The live catalog's cache: one per server, whatever the pin.
        self.plan_cache = plan_cache

    @property
    def seq(self) -> int:
        """The WAL/commit sequence this view is current as of."""
        return self._generation.seq

    @property
    def is_durable(self) -> bool:
        return self._durable

    # -- catalog ----------------------------------------------------------

    def table(self, name: str) -> SnapshotTable:
        try:
            return self._generation.tables[name.lower()]
        except KeyError:
            raise SchemaError(
                f"no table {name!r} in snapshot @seq={self.seq}",
                code="UnknownTableError",
            ) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._generation.tables

    def tables(self) -> Iterator[SnapshotTable]:
        return iter(self._generation.tables.values())

    def table_names(self) -> list[str]:
        return [table.name for table in self._generation.tables.values()]

    def view_definition(self, name: str) -> str | None:
        return self._generation.views.get(name.lower())

    def view_names(self) -> list[str]:
        return list(self._generation.views)

    # -- tuple-id resolution ----------------------------------------------

    def resolve(self, tid: TupleId) -> StoredTuple:
        return self.table(tid.table).get(tid)

    def confidence_of(self, tid: TupleId) -> float:
        return self.resolve(tid).confidence

    #: The same batch and column reads (they need only :meth:`table`).
    confidences = Database.confidences
    column_confidences = Database.column_confidences

    # -- mutation is forbidden --------------------------------------------

    def _readonly(self, operation: str):
        raise ServerError(
            f"cannot {operation} on snapshot @seq={self.seq}: snapshots "
            f"are immutable; commit through MVCCDatabase.commit",
            code="SnapshotWriteError",
        )

    create_table = _refused("create_table")
    drop_table = _refused("drop_table")
    create_view = _refused("create_view")
    drop_view = _refused("drop_view")
    set_confidence = _refused("set_confidence")
    apply_confidences = _refused("apply_confidences")

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"SnapshotDatabase({self.name!r}, seq={self.seq}, "
            f"tables={self.table_names()})"
        )


class Snapshot:
    """A pinned generation: hold it and the view cannot change.

    Obtained from :meth:`MVCCDatabase.snapshot`; release with
    :meth:`release` (or use as a context manager) so the generation can
    be garbage-collected.  Releasing twice is a no-op.
    """

    def __init__(self, owner: "MVCCDatabase", db: SnapshotDatabase) -> None:
        self._owner = owner
        self.db = db
        self._released = False

    @property
    def seq(self) -> int:
        return self.db.seq

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._owner._unpin(self.db.seq)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class MVCCDatabase:
    """Snapshot isolation over a live :class:`Database`.

    One writer at a time commits through :meth:`commit`; any number of
    readers hold :class:`Snapshot` pins concurrently.  The live database
    object must not be mutated behind this wrapper's back — route every
    write through :meth:`commit` (the constructor does not seize the
    storage objects, so nothing enforces this; the server layer does).
    """

    def __init__(self, db: Database) -> None:
        self._db = db
        self._commit_lock = threading.RLock()
        # Guards generation bookkeeping (pins + map); never held while
        # running user mutations, so readers snapshot/release in O(1)
        # regardless of writer activity.
        self._state_lock = threading.Lock()
        self._generations: dict[int, _Generation] = {}
        self._pins: dict[int, int] = {}
        self._commit_counter = 0
        self._seq_advanced = threading.Condition(self._state_lock)
        durability = db._durability
        if durability is not None:
            # Key generations by WAL seq *exactly* (a fresh dir boots at
            # 0, not 1): generation keys and replication positions then
            # agree across primary and replicas, which read-your-writes
            # routing (`min_seq`) relies on.
            self._commit_counter = durability.last_seq
            self._current_seq = self._commit_counter
        else:
            self._current_seq = self._next_seq()
        self._generations[self._current_seq] = self._build_generation(
            self._current_seq, previous=None
        )

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current generation and return a read-only view."""
        with self._state_lock:
            seq = self._current_seq
            self._pins[seq] = self._pins.get(seq, 0) + 1
            generation = self._generations[seq]
        view = SnapshotDatabase(
            generation, self._db.name, self._db.is_durable, self._db.plan_cache
        )
        self._gauge()
        return Snapshot(self, view)

    @property
    def current_seq(self) -> int:
        return self._current_seq

    def generation_seqs(self) -> list[int]:
        """Retained generation keys, oldest first (GC observability)."""
        with self._state_lock:
            return sorted(self._generations)

    # -- writing -----------------------------------------------------------

    def commit(self, mutate: Callable[[Database], T]) -> T:
        """Run *mutate* on the live database and publish a new generation.

        The mutation executes under the commit lock inside one durability
        batch, so concurrent commits serialize and a durable database
        recovers the whole commit or none of it.  A *statement* that
        raises has changed nothing — storage validates it whole before its
        first row moves — so there is nothing to flush or re-publish.  A
        *mutate* that applied one mutation and then raised is the
        remaining case: no generation is published, the batch journals
        what was applied, and no snapshot observes it until the next
        successful commit publishes everything whose version moved.
        """
        with self._commit_lock:
            with self._db.durability_batch():
                result = mutate(self._db)
            self._publish()
        return result

    def commit_replicated(self, seq: int, mutate: Callable[[Database], T]) -> T:
        """Apply an already-durable mutation and publish at *seq*.

        The replica path: the frame is in the local WAL before this runs
        (import-then-apply), so the mutation must **not** journal again —
        callers wrap it in ``DurabilityManager.suspended()``.  The new
        generation is keyed by the primary's *seq* so snapshot tags line
        up with replication positions across the fleet; the publish guard
        still refuses to rewind (generation keys are node-local and
        strictly monotonic even across a resync).
        """
        with self._commit_lock:
            result = mutate(self._db)
            self._publish(seq)
        return result

    def wait_for_seq(self, seq: int, timeout: float) -> bool:
        """Block until the current generation reaches *seq* (or timeout)."""
        deadline = threading.TIMEOUT_MAX if timeout is None else timeout
        with self._seq_advanced:
            return self._seq_advanced.wait_for(
                lambda: self._current_seq >= seq, timeout=deadline
            )

    @contextmanager
    def paused_commits(self) -> Iterator[int]:
        """Hold the commit lock for the duration of the block.

        Yields the current seq.  Used to take a consistent cut of the
        live database (snapshot payloads, fingerprints) that is
        guaranteed to correspond to exactly one replication position.
        """
        with self._commit_lock:
            yield self._current_seq

    def refresh(self, snapshot: Snapshot) -> Snapshot:
        """Exchange *snapshot* for a pin on the current generation."""
        fresh = self.snapshot()
        snapshot.release()
        return fresh

    # -- internals ---------------------------------------------------------

    def _next_seq(self) -> int:
        """The key for the generation published now.

        A durable database uses the WAL sequence — the generation is the
        state as of that record.  In-memory databases (and the edge case
        of a commit that journaled nothing) fall back to a monotonic
        commit counter so keys never collide.
        """
        durability = self._db._durability
        self._commit_counter += 1
        if durability is not None:
            last = durability.last_seq
            if last > self._commit_counter:
                self._commit_counter = last
        return self._commit_counter

    def _build_generation(
        self, seq: int, previous: _Generation | None
    ) -> _Generation:
        tables: dict[str, SnapshotTable] = {}
        for table in self._db.tables():
            key = table.name.lower()
            existing = (
                previous.tables.get(key) if previous is not None else None
            )
            if existing is not None and existing.is_cut_of(table):
                tables[key] = existing  # copy-on-write: share unchanged
            else:
                tables[key] = SnapshotTable(table, existing)
        views = {
            name.lower(): self._db.view_definition(name)
            for name in self._db.view_names()
        }
        return _Generation(seq, tables, views)

    def _publish(self, seq: int | None = None) -> None:
        with self._state_lock:
            previous = self._generations[self._current_seq]
        if seq is None:
            seq = self._next_seq()
        elif seq > self._commit_counter:
            self._commit_counter = seq
        if seq <= self._current_seq:
            # Never rewind or collide with a (possibly pinned) existing
            # generation — replicated publishes behind the local chain
            # still move strictly forward.
            seq = self._current_seq + 1
            self._commit_counter = max(self._commit_counter, seq)
        generation = self._build_generation(seq, previous)
        with self._state_lock:
            self._generations[seq] = generation
            self._current_seq = seq
            self._collect_locked()
            self._seq_advanced.notify_all()
        self._gauge()

    def _unpin(self, seq: int) -> None:
        with self._state_lock:
            count = self._pins.get(seq)
            if count is None:  # pragma: no cover - double release guard
                raise ServerError(
                    f"generation {seq} is not pinned",
                    code="SessionClosedError",
                )
            if count <= 1:
                del self._pins[seq]
            else:
                self._pins[seq] = count - 1
            self._collect_locked()
        self._gauge()

    def _collect_locked(self) -> None:
        """Drop every generation that is neither current nor pinned."""
        for seq in [
            seq
            for seq in self._generations
            if seq != self._current_seq and seq not in self._pins
        ]:
            del self._generations[seq]

    def _gauge(self) -> None:
        get_metrics().gauge("mvcc.generations").set(len(self._generations))

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"MVCCDatabase({self._db.name!r}, seq={self._current_seq}, "
            f"generations={len(self._generations)})"
        )
