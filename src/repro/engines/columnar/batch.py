"""Columnar batches: the data representation of the columnar engine.

A :class:`ColumnBatch` holds one value list per schema column plus a
lineage column.  Two deliberate choices keep it fast without any native
dependencies:

* **Read through the selection.**  A scan's columns are the table's
  cached view (:meth:`repro.storage.table.Table.column_data`), shared and
  never copied.  A filter, sort, limit or semi-join passes row positions
  and an inner equi-join (left, right) index pairs: the output's columns
  are a :class:`~repro.storage.tuples.Selection` — its inputs' source
  columns read through index vectors, each gathered when something
  first reads it and kept.
  Gathering a selection again composes its index vectors, so a column
  nobody reads is never copied, and one that is read is copied once, at
  the rows that reach the reader.  Kernels gather into fresh lists and
  never mutate a column.

* **Deferred lineage.**  A batch's lineage is in one of two states.
  *Deferred*: k ≥ 1 factor columns, row *i* standing for
  ``lineage_and(f₀[i], f₁[i], …)``, where a factor is a base tuple (its
  ``Var``) or a :class:`Group` — the OR over rows of an inner batch that
  DISTINCT, GROUP BY and ``IN`` emit instead of building it.  A scan is
  one tid column, an inner equi-join concatenates its inputs' columns,
  and filter / project / sort / limit carry them along — read through
  the selection like the value columns — so none of these builds a
  ``Var``, an ``And`` or an ``Or``.  *Materialised*: a list of
  formulas.  :meth:`lineage_at` builds one deferred row's formula and
  :meth:`lineage_column` materialises the batch, which happens where a
  formula is combined row by row (a LEFT equi-join, and every operator
  the engine runs through the native row operator).  The smart
  constructors flatten and dedupe, ``Var`` equality is structural, and a
  group ORs its members in the order the native engine does, so deferred
  construction yields formulas structurally identical to the native
  engine's — a self-join's ``And(x, x)`` is ``x`` here too.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator, Sequence

from ...algebra.rows import ResultSet
from ...errors import ExecutionError
from ...lineage.formula import (
    Lineage,
    Var,
    lineage_and,
    lineage_not,
    lineage_or,
    var,
)
from ...storage.schema import Schema
from ...storage.tuples import Selection, TupleId, selection_parts

__all__ = ["ColumnBatch", "Group"]


class Group:
    """A lineage factor: the OR over rows *members* of an *inner* batch.

    One DISTINCT / GROUP BY key's rows, or the subquery rows an ``IN``
    probe matches — ``NOT`` of that OR under ``NOT IN``, where a probe
    without a match is the empty group (``¬⊥ = ⊤``).  Every row a group
    stands for shares it, so its formula and its tuples are built once.
    """

    __slots__ = ("inner", "members", "negated", "_lineage", "_variables")

    def __init__(
        self, inner: "ColumnBatch", members: Sequence[int], negated: bool = False
    ) -> None:
        self.inner = inner
        self.members = members
        self.negated = negated
        self._lineage: Lineage | None = None
        self._variables: frozenset[TupleId] | None = None

    def lineage(self) -> Lineage:
        """``lineage_or`` of the members' formulas, in member order."""
        if self._lineage is None:
            _build_groups([self])
        return self._lineage

    @property
    def variables(self) -> frozenset[TupleId]:
        """The members' base tuples (read off a deferred inner's columns)."""
        if self._variables is None:
            self._variables = self.inner.variables(self.members)
        return self._variables


def _build_groups(groups: Sequence[Group]) -> None:
    """Build the formulas of *groups* — one column's, so one inner batch's
    — in one pass over the members of those not built yet."""
    pending = [group for group in dict.fromkeys(groups) if group._lineage is None]
    if pending:
        formulas = iter(
            pending[0].inner.lineages(
                [j for group in pending for j in group.members]
            )
        )
        for group in pending:
            formula = lineage_or(*islice(formulas, len(group.members)))
            group._lineage = lineage_not(formula) if group.negated else formula


def _shared_vars(tids: Sequence[TupleId]) -> Iterator[Var]:
    """A ``Var`` per tuple, shared by its repeats: a joined column repeats a
    tuple once per partner, and the native rows share its ``Var``."""
    shared = {tid: var(tid) for tid in dict.fromkeys(tids)}
    return map(shared.__getitem__, tids)


def _holds_groups(column: Sequence) -> bool:
    """Whether a factor column holds groups — all over one inner batch —
    rather than base tuples (never both)."""
    return bool(column) and type(column[0]) is Group


def _tuple_sets(column: Sequence) -> list:
    """Each entry's base tuples: a tid's own, a group's or a formula's."""
    if column and type(column[0]) is TupleId:
        return [(tid,) for tid in column]
    return [entry.variables for entry in column]


class ColumnBatch:
    """A schema, per-column value lists, and a lineage column — deferred
    (:attr:`factors`) or materialised, never both."""

    __slots__ = ("schema", "columns", "length", "_lineage", "factors")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[list],
        lineage: list[Lineage] | None = None,
        factors: tuple[Sequence["TupleId | Group"], ...] | None = None,
    ) -> None:
        if (lineage is None) == (factors is None):
            raise ValueError("a batch needs a lineage or factors, not both")
        self.schema = schema
        #: The value columns: plain lists, or a :class:`Selection`.
        self.columns = columns
        if lineage is not None:
            self.length = len(lineage)
        elif type(factors) is Selection:
            self.length = len(factors.parts[0][1])
        else:
            self.length = len(factors[0])
        self._lineage = lineage
        #: The deferred lineage (``None`` once materialised).
        self.factors = factors

    def __len__(self) -> int:
        return self.length

    # -- lineage ---------------------------------------------------------

    def lineage_at(self, index: int) -> Lineage:
        """Row *index*'s lineage (built per call when deferred)."""
        return self.lineages([index])[0]

    def lineages(self, indices: Sequence[int] | None = None) -> list[Lineage]:
        """The lineage of the rows at *indices* (all rows by default),
        built in bulk when deferred."""
        if self._lineage is not None:
            if indices is None:
                return self._lineage
            return [self._lineage[i] for i in indices]
        columns = self.factors
        if indices is not None:
            columns = Selection(selection_parts(columns, indices, {}), len(columns))
        parts = []
        for column in columns:
            if _holds_groups(column):
                _build_groups(column)
                parts.append(map(Group.lineage, column))
            else:
                parts.append(_shared_vars(column))
        return list(parts[0] if len(parts) == 1 else map(lineage_and, *parts))

    def lineage_column(self) -> list[Lineage]:
        """The full lineage column; a deferred batch is materialised by
        the call."""
        if self._lineage is None:
            self._lineage = self.lineages()
            self.factors = None
        return self._lineage

    def tids(self) -> Sequence[TupleId]:
        """Each row's base tuple — for a batch that is still rows of one
        table (a scan under filters and projections), nothing else."""
        if self.factors is not None:
            if len(self.factors) == 1 and not _holds_groups(self.factors[0]):
                return self.factors[0]
        elif all(type(formula) is Var for formula in self._lineage):
            return [formula.tid for formula in self._lineage]
        raise ExecutionError(
            "tids() needs a batch whose rows are rows of one table; "
            "these derive from several base tuples each"
        )

    def variables(
        self, indices: Sequence[int] | None = None
    ) -> frozenset[TupleId]:
        """The base tuples of the rows at *indices* (all rows by default)."""
        tuples: set[TupleId] = set()
        for column in self.factors or (self._lineage,):
            if indices is not None:
                column = [column[i] for i in indices]
            if column and type(column[0]) is TupleId:
                tuples.update(column)
            else:  # a group or a formula per row, shared by many
                tuples.update(*(entry.variables for entry in dict.fromkeys(column)))
        return frozenset(tuples)

    def row_variables(self) -> list[frozenset[TupleId]]:
        """Each row's base tuples, in row order."""
        columns = map(_tuple_sets, self.factors or (self._lineage,))
        return [frozenset().union(*parts) for parts in zip(*columns)]

    # -- row views -------------------------------------------------------

    def row(self, index: int) -> tuple[Any, ...]:
        """Row *index*'s values as a tuple."""
        return tuple([column[index] for column in self.columns])

    def rows(self, indices: Sequence[int] | None = None) -> list[tuple[Any, ...]]:
        """All rows as value tuples (one zip, not per-row indexing), or
        those at *indices*, in that order."""
        if self.length == 0:
            return []
        if indices is None:
            return list(zip(*self.columns))
        return list(
            zip(*[list(map(column.__getitem__, indices)) for column in self.columns])
        )

    # -- derived batches -------------------------------------------------

    def with_columns(
        self, schema: Schema, columns: Sequence[list]
    ) -> "ColumnBatch":
        """Same rows/lineage, different values (project, alias, widen)."""
        return ColumnBatch(schema, columns, self._lineage, self.factors)

    def gather(self, indices: Sequence[int]) -> "ColumnBatch":
        """The sub-batch of *indices*, in the given order: its value and
        factor columns are this batch's read through *indices*, none
        copied until it is read."""
        composed: dict = {}
        columns = Selection(
            selection_parts(self.columns, indices, composed), len(self.schema)
        )
        if self._lineage is not None:
            return ColumnBatch(
                self.schema,
                columns,
                lineage=[self._lineage[i] for i in indices],
            )
        return ColumnBatch(
            self.schema,
            columns,
            factors=Selection(
                selection_parts(self.factors, indices, composed),
                len(self.factors),
            ),
        )

    @classmethod
    def joined(
        cls,
        schema: Schema,
        left: "ColumnBatch",
        left_index: Sequence[int],
        right: "ColumnBatch",
        right_index: Sequence[int],
    ) -> "ColumnBatch":
        """The rows of *left* at *left_index* beside those of *right* at
        *right_index* — an inner join's pairs — read through both index
        vectors.  Two deferred inputs give a deferred output: the left's
        factor columns, then the right's."""
        on_left: dict = {}
        on_right: dict = {}
        columns = Selection(
            selection_parts(left.columns, left_index, on_left)
            + selection_parts(right.columns, right_index, on_right),
            len(schema),
        )
        if left.factors is None or right.factors is None:
            formulas = map(
                lineage_and, left.lineages(left_index), right.lineages(right_index)
            )
            return cls(schema, columns, lineage=list(formulas))
        factors = Selection(
            selection_parts(left.factors, left_index, on_left)
            + selection_parts(right.factors, right_index, on_right),
            len(left.factors) + len(right.factors),
        )
        return cls(schema, columns, factors=factors)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """A contiguous window of rows (LIMIT/OFFSET)."""
        return self.gather(range(start, min(stop, self.length)))

    # -- boundaries ------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        values: Sequence[tuple[Any, ...]],
        lineage: list[Lineage] | None = None,
        factors: tuple[Sequence["TupleId | Group"], ...] | None = None,
    ) -> "ColumnBatch":
        """Build a batch from row tuples (join/distinct/set-op outputs)."""
        if values:
            columns: Sequence[list] = [list(column) for column in zip(*values)]
        else:
            columns = [[] for _ in schema]
        return cls(schema, columns, lineage, factors)

    def to_result_set(self) -> ResultSet:
        """Hand the batch over as a result set: rows, and a deferred
        batch's lineage, are built when the result is asked for them."""
        return ResultSet.from_batch(self)

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"ColumnBatch({self.length} rows x {len(self.columns)} cols, "
            f"lineage={'deferred' if self._lineage is None else 'materialized'})"
        )
