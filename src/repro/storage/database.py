"""The database: a catalog of tables plus tuple-id resolution.

:class:`Database` is the storage-engine entry point used by the SQL layer,
the lineage engine (to read current base-tuple confidences) and the
improvement service (to write increased confidences back).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterable, Iterator, Mapping, Sequence

from ..errors import SchemaError, WriteBackConflictError
from .lru import BoundedLRU
from .schema import Schema
from .table import Table
from .tuples import StoredTuple, TupleId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .durability import DurabilityManager, RetryPolicy
    from .durability.faults import FaultInjector

__all__ = ["Database", "PLAN_CACHE_SIZE"]

#: Statements one catalog keeps prepared (least recently used goes first).
PLAN_CACHE_SIZE = 1024

#: Keyed writes one database remembers having committed (likewise).
IDEMPOTENCY_CAPACITY = 1024


class Database:
    """A named collection of :class:`~repro.storage.table.Table` objects.

    A database is in-memory by default; :meth:`open` returns one backed
    by a write-ahead log and checksummed snapshots in a data directory
    (see :mod:`repro.storage.durability`).
    """

    def __init__(self, name: str = "main") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._views: dict[str, str] = {}
        #: Exact SQL text → what :func:`repro.sql.prepare` made of it
        #: (opaque here, and table-free: an entry must keep no generation's
        #: rows alive); shared by every snapshot and session of this catalog.
        self.plan_cache = BoundedLRU(PLAN_CACHE_SIZE)
        #: The exactly-once map, ⟨client id, idempotency key⟩ → the seq of
        #: the commit that carried the key's ``idempotency`` marker.  It is
        #: replicated state like the tables: written where a marker is
        #: committed (``DurabilityManager._commit``) or replayed
        #: (``apply_op`` — recovery, a replica), carried by every snapshot.
        self.idempotency_keys = BoundedLRU(IDEMPOTENCY_CAPACITY)
        #: Set by DurabilityManager.attach; None = in-memory database.
        self._durability: "DurabilityManager | None" = None

    # -- durability ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        data_dir: str,
        name: str = "main",
        *,
        sync: bool = True,
        retry: "RetryPolicy | None" = None,
        checkpoint_bytes: int | None = None,
        faults: "FaultInjector | None" = None,
    ) -> "Database":
        """Open (or create) a durable database persisted under *data_dir*.

        Recovers the newest valid snapshot plus the committed WAL suffix,
        then journals every subsequent mutation.  Raises
        :class:`~repro.errors.CorruptLogError` /
        ``CorruptSnapshotError`` on damaged state
        rather than silently dropping data.
        """
        from .durability import DurabilityManager, recover

        db, report = recover(data_dir, name)
        manager = DurabilityManager(
            data_dir,
            sync=sync,
            retry=retry,
            checkpoint_bytes=checkpoint_bytes,
            faults=faults,
        )
        manager.attach(db, report.last_seq, report.tail)
        return db

    @property
    def is_durable(self) -> bool:
        """True when mutations are journaled to a write-ahead log."""
        return self._durability is not None

    def checkpoint(self) -> int:
        """Snapshot the state and compact the WAL; returns snapshot bytes.

        No-op (returns 0) for in-memory databases.
        """
        if self._durability is None:
            return 0
        return self._durability.checkpoint()

    def close(self) -> None:
        """Flush and detach durability (safe to call twice; no-op if none)."""
        if self._durability is not None:
            self._durability.close()

    def durability_batch(self) -> ContextManager[Any]:
        """Context manager grouping enclosed mutations into one WAL record.

        One statement is already one mutation and one record; this groups
        what spans mutations — a commit's statement plus its idempotency
        marker, a strategy's write-back over several tables — so it
        recovers atomically.  For in-memory databases this is a free no-op.
        """
        if self._durability is None:
            return nullcontext()
        return self._durability.batch()

    def _journal(self, op: "dict[str, Any]") -> None:
        if self._durability is not None:
            self._durability.log_op(op)

    # -- catalog ----------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create and register a new table.

        Raises ``DuplicateTableError`` if the (case-
        insensitive) name is taken.
        """
        key = name.lower()
        if key in self._tables:
            raise SchemaError(
                f"table {name!r} already exists", code="DuplicateTableError"
            )
        table = Table(name, schema)
        self._tables[key] = table
        if self._durability is not None:
            from .durability.codec import encode_schema

            table._journal = self._durability.log_op
            self._journal(
                {
                    "op": "create_table",
                    "table": name,
                    "columns": encode_schema(table.schema),
                }
            )
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog (raises if unknown)."""
        key = name.lower()
        if key not in self._tables:
            raise SchemaError(f"no table {name!r}", code="UnknownTableError")
        self._tables[key]._journal = None
        del self._tables[key]
        self._journal({"op": "drop_table", "table": name})

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(f"no table {name!r}", code="UnknownTableError") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> Iterator[Table]:
        """All tables, in creation order."""
        return iter(self._tables.values())

    def table_names(self) -> list[str]:
        return [table.name for table in self._tables.values()]

    def clone(self, name: str | None = None) -> "Database":
        """A deep copy for what-if analysis.

        Tuple ids, values, confidences, cost models and view
        definitions are all copied, so an improvement plan can be applied
        to the clone (e.g. to preview post-improvement query results)
        without touching the original.  Cost-model objects are shared —
        they are immutable.
        """
        copy = Database(name if name is not None else f"{self.name}-clone")
        for table in self.tables():
            cloned = copy.create_table(table.name, table.schema.unqualified())
            for row in table.scan():
                # Plain insert would renumber ordinals after deletes; keep
                # the original ids so lineage stays valid across the clone.
                cloned._force_insert(row)
            cloned._next_ordinal = table._next_ordinal
        for view in self.view_names():
            copy.create_view(view, self.view_definition(view))
        return copy

    # -- views --------------------------------------------------------------
    # The catalog stores view definitions as SQL text (as SQLite does); the
    # SQL planner expands them at plan time, so views compose with lineage
    # and confidence like any derived table.

    def create_view(
        self, name: str, sql: str, validate: Callable[[], Any] | None = None
    ) -> None:
        """Register a named view over *sql* (a SELECT statement).

        Names share the table namespace (a view cannot shadow a table).
        *validate* runs with the view registered (a definition that reads
        itself must plan as the cycle it is) and before anything is
        journaled: if it raises, the view is un-registered and the log
        untouched.  Without it the definition is validated at first use.
        """
        key = name.lower()
        if key in self._tables or key in self._views:
            raise SchemaError(
                f"table or view {name!r} already exists", code="DuplicateTableError"
            )
        self._views[key] = sql
        if validate is not None:
            try:
                validate()
            except BaseException:
                del self._views[key]
                raise
        self._journal({"op": "create_view", "name": name, "sql": sql})

    def drop_view(self, name: str) -> None:
        key = name.lower()
        if key not in self._views:
            raise SchemaError(f"no view {name!r}", code="UnknownTableError")
        del self._views[key]
        self._journal({"op": "drop_view", "name": name})

    def view_definition(self, name: str) -> str | None:
        """The SQL text of view *name*, or None if no such view."""
        return self._views.get(name.lower())

    def view_names(self) -> list[str]:
        return list(self._views)

    # -- tuple-id resolution -----------------------------------------------

    def resolve(self, tid: TupleId) -> StoredTuple:
        """The stored tuple behind *tid*, wherever it lives."""
        return self.table(tid.table).get(tid)

    def confidence_of(self, tid: TupleId) -> float:
        """Current confidence of base tuple *tid*."""
        return self.resolve(tid).confidence

    def confidences(self, tids: Iterable[TupleId]) -> dict[TupleId, float]:
        """Current confidences for a batch of tuple ids (each table is
        looked up once, then its rows are read directly)."""
        getters: dict[str, Callable[[TupleId], StoredTuple]] = {}
        confidences: dict[TupleId, float] = {}
        for tid in tids:
            get = getters.get(tid.table)
            if get is None:
                get = getters[tid.table] = self.table(tid.table).get
            confidences[tid] = get(tid).confidence
        return confidences

    def column_confidences(self, tids: Sequence[TupleId]) -> list[float]:
        """Current confidences of *tids* — one table's tuples, e.g. a
        factor column — in order, read by ordinal off that table; raises
        what :meth:`confidences` raises for a missing one."""
        return self.table(tids[0].table).column_confidences(tids)

    def set_confidence(self, tid: TupleId, confidence: float) -> None:
        """Overwrite the stored confidence of base tuple *tid*."""
        self.table(tid.table).set_confidence(tid, confidence)

    def apply_confidences(
        self,
        updates: Mapping[TupleId, float],
        read: Mapping[TupleId, float] | None = None,
    ) -> None:
        """Apply a batch of confidence updates atomically-in-effect.

        All updates are validated (``StoredTuple.checked_confidence``)
        before any is applied, so a bad target leaves the database
        unchanged.  Each table takes its share as one
        :meth:`~repro.storage.table.Table.update_rows` call; on a durable
        database the whole batch — e.g. an accepted increment strategy's
        write-back — is journaled as ONE atomic WAL record: recovery sees
        either none of the strategy or all of it.

        *read* is what the updates were computed from: the confidence of
        every base tuple the strategy read.  If one is no longer stored,
        the batch is refused with the retryable
        :class:`~repro.errors.WriteBackConflictError` and nothing changes.
        """
        if read:
            stored = self.confidences(read)
            changed = [tid for tid, value in read.items() if stored[tid] != value]
            if changed:
                first = changed[0]
                raise WriteBackConflictError(
                    f"write-back refused: {len(changed)} tuple(s) it read "
                    f"changed since, e.g. {first} {read[first]!r} -> "
                    f"{stored[first]!r}",
                    changed=len(changed),
                )
        by_table: dict[str, tuple[list[int], list[float]]] = {}
        for tid, value in updates.items():
            row = self.resolve(tid)
            ordinals, values = by_table.setdefault(row.tid.table, ([], []))
            ordinals.append(row.tid.ordinal)
            values.append(row.checked_confidence(value))
        with self.durability_batch():
            for table_name, (ordinals, values) in by_table.items():
                self.table(table_name).update_rows(ordinals, confidence=values)

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"Database({self.name!r}, tables={self.table_names()})"
