"""Columnar batches: the data representation of the columnar engine.

A :class:`ColumnBatch` holds one value list per schema column plus a
lineage column.  Two deliberate choices keep it fast without any native
dependencies:

* **Read-only sharing.**  Column lists are shared, never copied, between
  operators (and with :meth:`repro.storage.table.Table.column_data`'s
  per-table cache); kernels gather into fresh lists instead of mutating.

* **Deferred lineage.**  A scan does not build one ``Var`` object per
  stored row; the batch carries the tid column and :meth:`lineage_at`
  builds ``var(tid)`` for the rows a kernel asks about (a join's matched
  right rows, an ``IN``'s probed values); :meth:`lineage_column`
  materializes all of it, so kernels call it on what they return — a
  join's matching left rows — or where every input row lands in some
  group (DISTINCT, aggregates, set operations).  ``Var`` equality is
  structural, so deferred construction yields formulas structurally
  identical to the native engine's.
"""

from __future__ import annotations

from typing import Any, Sequence

from ...algebra.rows import AnnotatedTuple, ResultSet
from ...lineage.formula import Lineage, var
from ...storage.schema import Schema
from ...storage.tuples import TupleId

__all__ = ["ColumnBatch"]


class ColumnBatch:
    """A schema, per-column value lists, and a (possibly deferred) lineage
    column."""

    __slots__ = ("schema", "columns", "length", "_lineage", "_tids")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[list],
        lineage: list[Lineage] | None = None,
        tids: Sequence[TupleId] | None = None,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.length = len(columns[0]) if columns else 0
        if lineage is None and tids is None:
            raise ValueError("a batch needs a lineage or a tid column")
        self._lineage = lineage
        self._tids = tids

    def __len__(self) -> int:
        return self.length

    # -- lineage ---------------------------------------------------------

    def lineage_at(self, index: int) -> Lineage:
        """Row *index*'s lineage (materialized on demand when deferred)."""
        if self._lineage is not None:
            return self._lineage[index]
        assert self._tids is not None
        return var(self._tids[index])

    def lineage_column(self) -> list[Lineage]:
        """The full lineage column, materialized and cached."""
        if self._lineage is None:
            assert self._tids is not None
            self._lineage = [var(tid) for tid in self._tids]
        return self._lineage

    def tids(self) -> Sequence[TupleId]:
        """Each row's base tuple — for a batch that is still rows of one
        table (a scan under filters and projections), nothing else."""
        if self._tids is None:
            return [formula.tid for formula in self._lineage]
        return self._tids

    # -- row views -------------------------------------------------------

    def row(self, index: int) -> tuple[Any, ...]:
        """Row *index*'s values as a tuple."""
        return tuple([column[index] for column in self.columns])

    def rows(self) -> list[tuple[Any, ...]]:
        """All rows as value tuples (one zip, not per-row indexing)."""
        if self.length == 0:
            return []
        return list(zip(*self.columns))

    # -- derived batches -------------------------------------------------

    def with_columns(
        self, schema: Schema, columns: Sequence[list]
    ) -> "ColumnBatch":
        """Same rows/lineage, different values (project, alias, widen)."""
        return ColumnBatch(
            schema, columns, lineage=self._lineage, tids=self._tids
        )

    def gather(self, indices: Sequence[int]) -> "ColumnBatch":
        """The sub-batch of *indices*, in the given order (filter output)."""
        columns = [
            [column[i] for i in indices] for column in self.columns
        ]
        if self._lineage is not None:
            return ColumnBatch(
                self.schema,
                columns,
                lineage=[self._lineage[i] for i in indices],
            )
        assert self._tids is not None
        tids = self._tids
        return ColumnBatch(
            self.schema, columns, tids=[tids[i] for i in indices]
        )

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """A contiguous window of rows (LIMIT/OFFSET)."""
        columns = [column[start:stop] for column in self.columns]
        if self._lineage is not None:
            return ColumnBatch(
                self.schema, columns, lineage=self._lineage[start:stop]
            )
        assert self._tids is not None
        return ColumnBatch(
            self.schema, columns, tids=self._tids[start:stop]
        )

    # -- boundaries ------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        values: Sequence[tuple[Any, ...]],
        lineage: list[Lineage],
    ) -> "ColumnBatch":
        """Build a batch from row tuples (join/distinct/set-op outputs)."""
        if values:
            columns: Sequence[list] = [list(column) for column in zip(*values)]
        else:
            columns = [[] for _ in schema]
        return cls(schema, columns, lineage=lineage)

    def to_result_set(self) -> ResultSet:
        """Materialize the batch as an annotated result set."""
        if self.length == 0:
            return ResultSet(self.schema, [])
        lineage = self.lineage_column()
        return ResultSet(
            self.schema,
            [
                AnnotatedTuple(values, formula)
                for values, formula in zip(zip(*self.columns), lineage)
            ],
        )

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"ColumnBatch({self.length} rows x {len(self.columns)} cols, "
            f"lineage={'deferred' if self._lineage is None else 'materialized'})"
        )
