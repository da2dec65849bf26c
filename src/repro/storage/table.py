"""In-memory tables with per-tuple confidence annotations.

A :class:`Table` is a heap of :class:`~repro.storage.tuples.StoredTuple`
objects over a fixed :class:`~repro.storage.schema.Schema`.  Inserts validate
values against the schema and assign monotonically increasing ordinals (and
hence stable :class:`~repro.storage.tuples.TupleId` values, even across
deletes).
"""

from __future__ import annotations

import threading
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..cost import CostModel, FreeCost
from ..errors import ReproError, SchemaError
from .schema import Column, Schema
from .tuples import ColumnView, StoredTuple, TupleId, column_view
from .types import coerce_value

__all__ = ["Table"]


def _copy_row(row: StoredTuple) -> StoredTuple:
    return StoredTuple(
        tid=row.tid,
        values=row.values,
        confidence=row.confidence,
        cost_model=row.cost_model,
    )


class Table:
    """A named heap of annotated tuples.

    Mutations and materialized-view builds serialize through a per-table
    lock, so concurrent readers (the server's session threads) always see
    an internally consistent scan/columnar view: a cache is only
    published after re-checking that :attr:`data_version` did not move
    while it was being built.  Readers of already-built caches stay
    lock-free.

    A statement is one mutation: :meth:`insert_rows`, :meth:`update_rows`
    and :meth:`delete_rows` are the only code that takes the lock to
    change rows, records the change and journals it, and each resolves
    every ordinal and validates every value and confidence before the
    first row changes — a refused row leaves table and journal exactly as
    they were.  When the owning database is durable, ``_journal`` holds the
    :meth:`~repro.storage.durability.manager.DurabilityManager.log_op`
    hook; a mutation hands it over once, *after* applying it in memory, so
    the write-ahead log records exactly what happened (see
    ``docs/ROBUSTNESS.md``); crash recovery and a replica replay the
    record through the same three.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        if len(schema) == 0:
            raise SchemaError(f"table {name!r} must have at least one column")
        self._name = name
        self._schema = schema.qualify(name)
        self._rows: dict[int, StoredTuple] = {}
        self._next_ordinal = 0
        #: Durability hook (``Callable[[dict], None]``); None = in-memory.
        self._journal = None
        # Materialized read views, built lazily on first scan and reused
        # until the next mutation: repeated scans (the increment loop, the
        # columnar engine) stop re-sorting and re-copying storage.
        self._scan_cache: list[StoredTuple] | None = None
        self._column_cache: (
            tuple[ColumnView, list[TupleId]] | None
        ) = None
        #: Monotonic mutation counter; bumps whenever cached views would
        #: go stale, so engines can key derived caches off ``(table,
        #: data_version)`` without holding row references.
        self.data_version = 0
        # Ordinals touched since data_version was ``_changed_since``; None
        # means "every row".  :meth:`drain_changes` hands the set to MVCC
        # publication and restarts it.  It collapses to None as soon as it
        # covers more than half the table: patching a row into a snapshot
        # costs about twice what copying it does (EXPERIMENTS.md E14), so
        # past that point the full copy is the cheaper publication.  That
        # also bounds the set by the table's own size with no consumer at
        # all, and a bulk load never builds one.
        self._changed: set[int] | None = set()
        self._changed_since = 0
        # ``_rows`` is kept in ordinal order (inserts append, deletes keep
        # order), so a scan is its values; only a ``_force_insert`` below
        # an existing ordinal breaks that, until the next scan re-sorts.
        self._ordered = True
        # Serializes mutations against cache builds: without it, a writer
        # slipping between a cache build and its publication could leave a
        # stale columnar view installed *after* the data_version bump —
        # silently serving the pre-mutation rows to the columnar engine.
        self._lock = threading.RLock()

    # -- metadata --------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def schema(self) -> Schema:
        """The table schema, with columns qualified by the table name."""
        return self._schema

    def __len__(self) -> int:
        return len(self._rows)

    # -- cache maintenance ----------------------------------------------

    def _record_change(self, ordinals: Iterable[int] | None) -> None:
        """Account for one mutation of rows *ordinals* (None = every row).

        Drops the materialized read views, bumps :attr:`data_version` and
        remembers which rows moved.  Confidence-only updates do not change
        values or ordering, but they still bump the version so engine-side
        caches keyed on it (e.g. per-table lineage columns) cannot serve
        stale annotations.  Callers hold the table lock.
        """
        self._scan_cache = None
        self._column_cache = None
        self.data_version += 1
        changed = self._changed
        if changed is not None:
            if ordinals is not None:
                changed.update(ordinals)
            if ordinals is None or 2 * len(changed) > len(self._rows):
                self._changed = None

    def drain_changes(
        self, since: int | None
    ) -> tuple[int, dict[int, StoredTuple | None], bool]:
        """Hand the rows changed since version *since* to a snapshot.

        Returns ``(data_version, rows, complete)``.  *rows* maps ordinals
        to fresh :class:`StoredTuple` copies (later writes to the live
        rows cannot reach them); a deleted ordinal maps to ``None``.
        When *complete* is true the tracked changes do not cover exactly
        ``(since, data_version]`` — first cut, another consumer drained
        in between, or too much changed — and *rows* is instead every
        row, in scan order.  Either way tracking restarts at the returned
        version, all under one hold of the table lock.
        """
        with self._lock:
            changed = self._changed
            complete = changed is None or since != self._changed_since
            rows: dict[int, StoredTuple | None]
            if complete:
                rows = {
                    row.tid.ordinal: _copy_row(row)
                    for row in self._sorted_rows()
                }
            else:
                rows = {}
                for ordinal in changed:
                    row = self._rows.get(ordinal)
                    rows[ordinal] = None if row is None else _copy_row(row)
            self._changed = set()
            self._changed_since = self.data_version
            return self.data_version, rows, complete

    # -- mutation --------------------------------------------------------

    @staticmethod
    def _coerced(column: Column, values: Iterable[Any]) -> list[Any]:
        """*values* as *column* stores them (raises on type or NOT NULL)."""
        dtype = column.dtype
        coerced = [coerce_value(value, dtype) for value in values]
        if not column.nullable and None in coerced:
            raise SchemaError(f"column {column.qualified_name} is NOT NULL")
        return coerced

    def _per_row(self, confidence: Any, count: int) -> Iterable[float]:
        """One confidence for every row, or a list or tuple of one per row
        (*count* of them).  Each is checked where it is stored."""
        if not isinstance(confidence, (list, tuple)):
            return repeat(confidence, count)
        if len(confidence) != count:
            raise SchemaError(
                f"table {self._name!r}: {len(confidence)} confidences for "
                f"{count} rows (give one, or one per row)"
            )
        return confidence

    def insert_rows(
        self,
        rows: Iterable[Sequence[Any]],
        confidence: "float | Sequence[float]" = 1.0,
        cost_model: CostModel | None = None,
    ) -> list[TupleId]:
        """Insert many tuples as ONE mutation; returns their new ids.

        Values are validated and coerced against the schema (ints widen to
        float in REAL columns).  *confidence* is one number for every row
        or one per row and defaults to fully trusted, *cost_model* to free
        improvement.  One lock hold, one :attr:`data_version` bump and one
        journal hand-off: a ``batch`` of one ``insert`` op per row (the
        journal writes a batch of one as the bare op).
        """
        rows = list(rows)
        if not rows:
            return []
        width = len(self._schema)
        for row in rows:
            if len(row) != width:
                raise SchemaError(
                    f"table {self._name!r} expects {width} values, "
                    f"got {len(row)}"
                )
        values = zip(*map(self._coerced, self._schema, zip(*rows)))
        confidences = self._per_row(confidence, len(rows))
        model = cost_model if cost_model is not None else FreeCost()
        name = self._name
        with self._lock:
            ordinals = range(self._next_ordinal, self._next_ordinal + len(rows))
            # Building a StoredTuple checks its confidence (range and cap).
            stored = [
                StoredTuple(TupleId(name, ordinal), row, row_confidence, model)
                for ordinal, row, row_confidence in zip(
                    ordinals, values, confidences
                )
            ]
            # Nothing below this line can be refused.
            self._next_ordinal = ordinals.stop
            self._rows.update(zip(ordinals, stored))
            self._record_change(ordinals)
            if self._journal is not None:
                ops = [
                    {
                        "op": "insert",
                        "table": name,
                        "ordinal": row.tid.ordinal,
                        "values": row.values,
                        "confidence": row.confidence,
                        "cost_model": model,
                    }
                    for row in stored
                ]
                self._journal({"op": "batch", "ops": ops})
        return [row.tid for row in stored]

    def delete_rows(self, ordinals: Iterable[int]) -> None:
        """Remove many tuples as ONE mutation.

        Raises ``UnknownTupleError``, having removed
        nothing, if any is absent.  One lock hold, one version bump, one
        journal hand-off: a ``batch`` of one ``delete`` op per row.
        """
        ordinals = list(dict.fromkeys(ordinals))
        if not ordinals:
            return
        with self._lock:
            self._resolved(ordinals)
            for ordinal in ordinals:
                del self._rows[ordinal]
            self._record_change(ordinals)
            if self._journal is not None:
                ops = [
                    {"op": "delete", "table": self._name, "ordinal": ordinal}
                    for ordinal in ordinals
                ]
                self._journal({"op": "batch", "ops": ops})

    def update_rows(
        self,
        ordinals: Sequence[int],
        columns: Sequence[int] = (),
        values: Sequence[Sequence[Any]] = (),
        confidence: "float | Sequence[float] | None" = None,
    ) -> None:
        """Change many rows as ONE mutation: what a statement did to a table.

        *ordinals* names the (distinct) rows.  *columns* holds the assigned
        column positions and *values* one sequence per assigned column,
        aligned with *ordinals* — unassigned columns are not mentioned and
        not touched.  *confidence* is ``None`` (keep), one number for every
        row, or one number per row.

        Every ordinal is resolved and every value and confidence coerced
        and validated before the first row changes, so a rejected row
        leaves the table — and the journal — exactly as they were.  The
        whole set is one lock hold, one :attr:`data_version` bump and one
        ``update_rows`` journal record.  Crash recovery and a replica
        replay that record through this same method.
        """
        ordinals = list(ordinals)
        if not ordinals:
            return
        if len(values) != len(columns) or any(
            len(column) != len(ordinals) for column in values
        ):
            raise SchemaError(
                f"table {self._name!r}: update_rows needs one value per row "
                f"for each assigned column"
            )
        if any(not 0 <= position < len(self._schema) for position in columns):
            raise SchemaError(
                f"table {self._name!r} has no column at one of the positions "
                f"{list(columns)}"
            )
        with self._lock:
            rows = self._resolved(ordinals)
            assigned = [
                self._coerced(self._schema[position], column)
                for position, column in zip(columns, values)
            ]
            confidences = None
            if confidence is not None:
                confidences = [
                    row.checked_confidence(value)
                    for row, value in zip(
                        rows, self._per_row(confidence, len(rows))
                    )
                ]
            # Nothing below this line can be refused.
            if assigned:
                for row, new in zip(rows, zip(*assigned)):
                    fresh = list(row.values)
                    for position, value in zip(columns, new):
                        fresh[position] = value
                    row.values = tuple(fresh)
            if confidences is not None:
                for row, value in zip(rows, confidences):
                    row.confidence = value
            self._record_change(ordinals)
            if self._journal is not None:
                scalar = isinstance(confidence, (int, float))
                self._journal(
                    {
                        "op": "update_rows",
                        "table": self._name,
                        "ordinals": ordinals,
                        "columns": list(columns),
                        "values": assigned,
                        "confidence": confidences[0] if scalar else confidences,
                    }
                )

    def _resolved(self, ordinals: Sequence[int]) -> list[StoredTuple]:
        try:
            return [self._rows[ordinal] for ordinal in ordinals]
        except KeyError as error:
            raise ReproError(
                f"no tuple {self._name}:{error.args[0]} in table "
                f"{self._name!r}",
                code="UnknownTupleError",
            ) from None

    # The one-row spellings of the three.

    def insert(
        self,
        values: Sequence[Any],
        confidence: float = 1.0,
        cost_model: CostModel | None = None,
    ) -> TupleId:
        """Insert one tuple; returns its new :class:`TupleId`."""
        return self.insert_rows([values], confidence, cost_model)[0]

    def delete(self, tid: TupleId) -> None:
        """Remove the tuple with id *tid* (raises if absent)."""
        self.delete_rows([self.get(tid).tid.ordinal])

    def set_confidence(self, tid: TupleId, confidence: float) -> None:
        """Overwrite the stored confidence of tuple *tid*."""
        row = self.get(tid)
        # Checked here: update_rows reads confidence=None as "keep".
        self.update_rows(
            [row.tid.ordinal], confidence=row.checked_confidence(confidence)
        )

    def update(self, tid: TupleId, values: Sequence[Any]) -> None:
        """Replace tuple *tid*'s values (validated against the schema).

        The tuple keeps its id, confidence and cost model.  Note that
        lineage referencing the id continues to refer to the (now updated)
        tuple — UPDATE models a correction of the stored fact, not a new
        fact.
        """
        self.update_rows(
            [self.get(tid).tid.ordinal],
            range(len(self._schema)),
            [[value] for value in values],
        )

    # -- reading ---------------------------------------------------------

    def get(self, tid: TupleId) -> StoredTuple:
        """The stored tuple with id *tid* (raises if unknown)."""
        if tid.table != self._name or tid.ordinal not in self._rows:
            raise ReproError(
                f"no tuple {tid} in table {self._name!r}", code="UnknownTupleError"
            )
        return self._rows[tid.ordinal]

    def confidence_of(self, tid: TupleId) -> float:
        """Current confidence of tuple *tid*."""
        return self.get(tid).confidence

    def column_confidences(self, tids: Sequence[TupleId]) -> list[float]:
        """Current confidences of *tids* — this table's tuples — in order,
        read by ordinal (raises what :meth:`get` raises for a missing one)."""
        rows = self._rows
        try:
            return [rows[tid.ordinal].confidence for tid in tids]
        except KeyError:
            return [self.get(tid).confidence for tid in tids]

    def scan(self) -> Iterator[StoredTuple]:
        """Iterate all tuples in insertion order.

        The sorted view is cached until the next mutation, so repeated
        scans (increment-loop re-execution, differential runs, engine
        warm-up) cost one pointer-list iteration instead of a fresh sort
        and copy of storage.
        """
        return iter(self._sorted_rows())

    def __iter__(self) -> Iterator[StoredTuple]:
        return self.scan()

    def rows(self) -> list[tuple[Any, ...]]:
        """All value tuples, in insertion order (convenience for tests)."""
        return [row.values for row in self._sorted_rows()]

    def _sorted_rows(self) -> list[StoredTuple]:
        cache = self._scan_cache
        if cache is None:
            # Build under the table lock: mutators hold it for the whole
            # mutation + invalidation, so the rows cannot shift between
            # the build and its publication.  The data_version re-check
            # guards the publish even if a future caller builds outside
            # the lock — a stale view must never be installed.
            with self._lock:
                version = self.data_version
                if not self._ordered:
                    self._rows = dict(sorted(self._rows.items()))
                    self._ordered = True
                cache = list(self._rows.values())
                if self.data_version == version:
                    self._scan_cache = cache
        return cache

    def column_data(self) -> tuple[ColumnView, list[TupleId]]:
        """Columnar view: one list per schema column, plus the tid column.

        Built once per table version and shared with callers — the
        returned lists are **read-only by contract**; engines must gather
        into fresh lists before mutating.  This is the scan source for the
        columnar engine (see ``docs/ENGINES.md``).  Rebuilds happen under
        the table lock with a :attr:`data_version` re-check before
        publication, so a concurrent mutation can never leave a stale
        columnar view installed for later readers.
        """
        cache = self._column_cache
        if cache is None:
            with self._lock:
                version = self.data_version
                stored = self._sorted_rows()
                cache = column_view(stored, len(self._schema))
                if self.data_version == version:
                    self._column_cache = cache
        return cache

    def lookup(self, column: str, value: Any) -> list[StoredTuple]:
        """All tuples whose *column* equals *value*, in scan order."""
        column_index = self._schema.index_of(column)
        return [
            row
            for row in self.scan()
            if row.values[column_index] == value
        ]

    def _force_insert(self, row: StoredTuple) -> None:
        """Insert a copy of *row* preserving its ordinal (clone support).

        Used by :meth:`~repro.storage.Database.clone` so tuple ids — and
        therefore existing lineage formulas — stay valid in the copy.
        """
        if row.tid.table != self._name:
            raise ReproError(
                f"tuple {row.tid} does not belong to table {self._name!r}",
                code="StorageError",
            )
        if row.tid.ordinal in self._rows:
            raise ReproError(f"tuple {row.tid} already exists", code="StorageError")
        copy = _copy_row(row)
        ordinal = copy.tid.ordinal
        with self._lock:
            if ordinal < self._next_ordinal:
                self._ordered = False  # may sit below an existing ordinal
            self._rows[ordinal] = copy
            self._next_ordinal = max(self._next_ordinal, ordinal + 1)
            self._record_change((ordinal,))

    # -- bulk helpers ----------------------------------------------------

    def assign_confidences(
        self,
        assigner: Callable[[StoredTuple], float],
    ) -> None:
        """Recompute every tuple's confidence with *assigner* (element 1).

        Used by :mod:`repro.trust` to seed confidences from provenance.
        Every row is scored before any is changed, so an *assigner* that
        raises — or returns a confidence a row cannot hold — changes
        nothing.
        """
        with self._lock:
            rows = list(self._rows.values())
            self.update_rows(
                [row.tid.ordinal for row in rows],
                confidence=[assigner(row) for row in rows],
            )

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"Table({self._name!r}, {len(self)} rows)"
