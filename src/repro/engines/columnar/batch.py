"""Columnar batches: the data representation of the columnar engine.

A :class:`ColumnBatch` holds one value list per schema column plus a
lineage column.  Two deliberate choices keep it fast without any native
dependencies:

* **Read-only sharing.**  Column lists are shared, never copied, between
  operators (and with :meth:`repro.storage.table.Table.column_data`'s
  per-table cache); kernels gather into fresh lists instead of mutating.

* **Deferred lineage.**  A batch's lineage is in one of two states.
  *Deferred*: k ≥ 1 tid columns, row *i* standing for
  ``And(var(c₀[i]), var(c₁[i]), …)`` — a scan is k = 1, an inner
  equi-join of deferred inputs concatenates its inputs' columns, and
  filter / project / sort / limit carry them along, so none of these
  builds a ``Var`` or an ``And``.  *Materialised*: a list of formulas.
  :meth:`lineage_at` builds one deferred row's formula for the rows a
  kernel asks about (an ``IN``'s kept rows and probed values);
  :meth:`lineage_column` materialises the batch, which kernels do where
  every input row lands in some group (DISTINCT, aggregates, set
  operations, a cross product).  ``lineage_and`` flattens and dedupes and
  ``Var`` equality is structural, so deferred construction yields
  formulas structurally identical to the native engine's — a self-join's
  ``And(x, x)`` is ``x`` here too.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Sequence

from ...algebra.rows import ResultSet
from ...errors import ExecutionError
from ...lineage.formula import Lineage, Var, lineage_and, var
from ...storage.schema import Schema
from ...storage.tuples import TupleId

__all__ = ["ColumnBatch"]


class ColumnBatch:
    """A schema, per-column value lists, and a lineage column — deferred
    (:attr:`tid_columns`) or materialised, never both."""

    __slots__ = ("schema", "columns", "length", "_lineage", "tid_columns")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[list],
        lineage: list[Lineage] | None = None,
        tid_columns: tuple[Sequence[TupleId], ...] | None = None,
    ) -> None:
        self.schema = schema
        self.columns = columns
        self.length = len(columns[0]) if columns else 0
        if (lineage is None) == (tid_columns is None):
            raise ValueError("a batch needs a lineage or tid columns, not both")
        self._lineage = lineage
        #: The deferred lineage (``None`` once materialised).
        self.tid_columns = tid_columns

    def __len__(self) -> int:
        return self.length

    # -- lineage ---------------------------------------------------------

    def lineage_at(self, index: int) -> Lineage:
        """Row *index*'s lineage (built per call when deferred)."""
        if self._lineage is not None:
            return self._lineage[index]
        if len(self.tid_columns) == 1:
            return var(self.tid_columns[0][index])
        return lineage_and(*[var(tids[index]) for tids in self.tid_columns])

    def lineage_column(self) -> list[Lineage]:
        """The full lineage column; a deferred batch is materialised by
        the call."""
        if self._lineage is None:
            if len(self.tid_columns) == 1:
                self._lineage = list(map(var, self.tid_columns[0]))
            else:
                # A joined column repeats a tuple once per partner: one
                # ``Var`` per tuple, shared, as the native rows share it.
                self._lineage = list(
                    map(
                        lineage_and,
                        *[map(cache(var), tids) for tids in self.tid_columns],
                    )
                )
            self.tid_columns = None
        return self._lineage

    def tids(self) -> Sequence[TupleId]:
        """Each row's base tuple — for a batch that is still rows of one
        table (a scan under filters and projections), nothing else."""
        if self.tid_columns is not None:
            if len(self.tid_columns) == 1:
                return self.tid_columns[0]
        elif all(type(formula) is Var for formula in self._lineage):
            return [formula.tid for formula in self._lineage]
        raise ExecutionError(
            "tids() needs a batch whose rows are rows of one table; "
            "these derive from several base tuples each"
        )

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
        return ColumnBatch(schema, columns, self._lineage, self.tid_columns)

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
        return ColumnBatch(
            self.schema,
            columns,
            tid_columns=tuple(
                [tids[i] for i in indices] for tids in self.tid_columns
            ),
        )

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """A contiguous window of rows (LIMIT/OFFSET)."""
        columns = [column[start:stop] for column in self.columns]
        if self._lineage is not None:
            return ColumnBatch(
                self.schema, columns, lineage=self._lineage[start:stop]
            )
        return ColumnBatch(
            self.schema,
            columns,
            tid_columns=tuple(
                tids[start:stop] for tids in self.tid_columns
            ),
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
        """Hand the batch over as a result set: rows, and a deferred
        batch's lineage, are built when the result is asked for them."""
        return ResultSet.from_batch(self)

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"ColumnBatch({self.length} rows x {len(self.columns)} cols, "
            f"lineage={'deferred' if self._lineage is None else 'materialized'})"
        )
