"""Tuple identities and stored tuples.

Every base tuple stored in a table receives a :class:`TupleId` — the unit
of lineage: query-result lineage formulas are boolean formulas over tuple
ids, and the confidence-increment algorithms decide, per tuple id, how much
to raise the stored confidence.

A :class:`StoredTuple` couples the values with the tuple's *uncertainty
annotations*: its current confidence, the cost model governing improvement,
and the resulting maximum reachable confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from ..cost import CostModel, FreeCost
from ..errors import InvalidConfidenceError

__all__ = [
    "TupleId",
    "StoredTuple",
    "ColumnView",
    "Selection",
    "column_view",
    "selection_parts",
]

_EPS = 1e-12


@dataclass(frozen=True, order=True)
class TupleId:
    """Globally unique identity of a stored base tuple.

    ``table`` is the owning table's catalog name and ``ordinal`` the tuple's
    insertion index within that table.  The string form ``table:ordinal``
    matches the paper's tuple labels (tuple "02" of *Proposal* is
    ``Proposal:2``).
    """

    table: str
    ordinal: int

    def __post_init__(self) -> None:
        # Tuple ids key every assignment / lineage / cache dict on the
        # solver hot paths; the generated dataclass hash re-hashes the
        # table name on every lookup, so cache it once.
        object.__setattr__(self, "_hash", hash((self.table, self.ordinal)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.table}:{self.ordinal}"

    @classmethod
    def parse(cls, text: str) -> "TupleId":
        """Inverse of ``str``: parse ``"table:ordinal"``."""
        table, _, ordinal = text.rpartition(":")
        if not table or not ordinal.isdigit():
            raise ValueError(f"not a tuple id: {text!r}")
        return cls(table, int(ordinal))


@dataclass
class StoredTuple:
    """A base tuple plus its uncertainty annotations.

    Attributes
    ----------
    tid:
        The tuple's identity, referenced by lineage formulas.
    values:
        The tuple's attribute values, positionally matching the table schema.
    confidence:
        Current trustworthiness in ``[0, 1]`` (element 1 of the paper).
    cost_model:
        Cost of raising :attr:`confidence`; :class:`~repro.cost.FreeCost`
        means the tuple is fully verified / improvement is free.
    """

    tid: TupleId
    values: tuple[Any, ...]
    confidence: float = 1.0
    cost_model: CostModel = field(default_factory=FreeCost)

    def __post_init__(self) -> None:
        self.values = tuple(self.values)
        self.confidence = self.checked_confidence(self.confidence)

    @property
    def max_confidence(self) -> float:
        """Highest confidence this tuple can be improved to."""
        return self.cost_model.max_confidence

    def checked_confidence(self, value: float) -> float:
        """*value* as this tuple would store it (raises unless a number —
        a bool is none — in [0, 1] and under the cap)."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidConfidenceError(
                f"confidence expects a number, got {value!r}"
            )
        if not 0.0 <= value <= 1.0 + _EPS:
            raise InvalidConfidenceError(f"confidence {value} outside [0, 1]")
        value = min(float(value), 1.0)
        if value > self.max_confidence + _EPS:
            raise InvalidConfidenceError(
                f"confidence {value} of {self.tid} exceeds the cost model's "
                f"maximum {self.max_confidence}"
            )
        return value

    def improvement_cost(self, target: float) -> float:
        """Cost of raising this tuple's confidence to *target*."""
        return self.cost_model.increment_cost(self.confidence, target)

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]


class ColumnView(tuple):
    """One table version's value columns, one list per schema column —
    read-only by contract.  Whether a column holds a NULL is found on its
    first ask and kept: the fact belongs to this version, and a write
    builds a new view, which starts fresh."""

    def __init__(self, columns: Any = ()) -> None:
        self._nulls: dict[int, bool] = {}

    def holds_null(self, position: int) -> bool:
        """Whether column *position* holds a NULL (scanned once)."""
        nulls = self._nulls
        if position not in nulls:
            nulls[position] = None in self[position]
        return nulls[position]


class Selection:
    """Columns read through index vectors: *parts* of ``(source columns,
    index vector)`` laid end to end — a filter's one part is its input's
    columns at the kept rows, a join's two are its inputs' at the (left,
    right) index pairs.  Column *c* is gathered on its first read and
    kept, so a column nobody reads is never copied."""

    __slots__ = ("parts", "width", "_read")

    def __init__(
        self, parts: tuple[tuple[Sequence[list], Sequence[int]], ...], width: int
    ) -> None:
        self.parts = parts
        #: The number of columns (the sources' widths summed).
        self.width = width
        self._read: dict[int, list] = {}

    def __len__(self) -> int:
        return self.width

    def __getitem__(self, position: int) -> list:
        column = self._read.get(position)
        if column is not None:
            return column
        offset = position
        for source, index in self.parts:
            if offset < len(source):
                column = list(map(source[offset].__getitem__, index))
                self._read[position] = column
                return column
            offset -= len(source)
        raise IndexError(position)

    def __iter__(self) -> Iterator[list]:
        return map(self.__getitem__, range(self.width))


def selection_parts(
    columns: Sequence[list], indices: Sequence[int], composed: dict
) -> tuple:
    """*columns* at *indices*, as :class:`Selection` parts over source
    columns: a selection's index vectors are composed with *indices*, each
    once per *composed* (a batch's value and factor parts share them)."""
    if type(columns) is not Selection:
        return ((columns, indices),)
    parts = []
    for source, index in columns.parts:
        key = id(index)
        if key not in composed:
            composed[key] = list(map(index.__getitem__, indices))
        parts.append((source, composed[key]))
    return tuple(parts)


def column_view(
    rows: "Sequence[StoredTuple]", width: int
) -> tuple[ColumnView, list[TupleId]]:
    """``(one value list per column, the tid column)`` of *rows*.

    One pass per column: a ``zip(*rows)`` transposition would hold one
    iterator per row, collector-tracked garbage on every DML's cold scan.
    """
    values = [row.values for row in rows]
    columns = ColumnView(
        [row[position] for row in values] for position in range(width)
    )
    return columns, [row.tid for row in rows]
