"""Relation schemas: ordered, named, typed columns.

A :class:`Schema` is immutable.  Query operators derive new schemas from old
ones (projection, join concatenation, renaming), so schemas support cheap
structural composition and lookup by qualified or unqualified name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..errors import AmbiguousColumnError, SchemaError, UnknownColumnError
from .types import DataType

__all__ = ["Column", "Schema"]


@dataclass(frozen=True)
class Column:
    """One column of a relation.

    Parameters
    ----------
    name:
        Unqualified column name, e.g. ``"Funding"``.
    dtype:
        The column's :class:`~repro.storage.types.DataType`.
    table:
        Optional qualifier — the (possibly aliased) relation the column
        belongs to.  Used for qualified lookup (``Proposal.Company``).
    nullable:
        Whether NULL values are accepted.
    """

    name: str
    dtype: DataType
    table: str | None = None
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")

    @property
    def qualified_name(self) -> str:
        """``table.name`` if qualified, else just ``name``."""
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name

    def with_table(self, table: str | None) -> "Column":
        """A copy of this column under a different qualifier."""
        return Column(self.name, self.dtype, table, self.nullable)

    def renamed(self, name: str) -> "Column":
        """A copy of this column with a different name."""
        return Column(name, self.dtype, self.table, self.nullable)

    def __str__(self) -> str:  # pragma: no cover - display only
        return f"{self.qualified_name}:{self.dtype}"


class Schema:
    """An immutable ordered sequence of :class:`Column` objects.

    Column names need not be globally unique (a join of two tables may carry
    two ``Company`` columns); unqualified lookup of a duplicated name raises
    :class:`~repro.errors.AmbiguousColumnError`, while qualified lookup
    (``table.column``) disambiguates.  Within one *qualifier*, names must be
    unique.
    """

    __slots__ = ("_columns", "_by_qualified")

    def __init__(self, columns: Iterable[Column]) -> None:
        self._columns: tuple[Column, ...] = tuple(columns)
        by_qualified: dict[str, int] = {}
        for index, column in enumerate(self._columns):
            key = column.qualified_name.lower()
            if key in by_qualified:
                raise SchemaError(
                    f"duplicate column {column.qualified_name!r} in schema",
                    code="DuplicateColumnError",
                )
            by_qualified[key] = index
        self._by_qualified = by_qualified

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(cls, *pairs: tuple[str, DataType], table: str | None = None) -> "Schema":
        """Build a schema from ``(name, dtype)`` pairs.

        >>> Schema.of(("Company", TEXT), ("Funding", REAL), table="Proposal")
        """
        return cls(Column(name, dtype, table) for name, dtype in pairs)

    def qualify(self, table: str) -> "Schema":
        """All columns re-qualified under *table* (used for ``AS`` aliases)."""
        return Schema(column.with_table(table) for column in self._columns)

    def unqualified(self) -> "Schema":
        """All columns with their qualifier dropped."""
        return Schema(column.with_table(None) for column in self._columns)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join: this schema's columns followed by *other*'s."""
        return Schema((*self._columns, *other._columns))

    def project(self, indexes: Sequence[int]) -> "Schema":
        """Schema consisting of the columns at *indexes*, in order."""
        return Schema(self._columns[i] for i in indexes)

    # -- lookup ---------------------------------------------------------------

    def index_of(self, name: str, table: str | None = None) -> int:
        """Position of the column named *name* (optionally ``table``-qualified).

        Raises
        ------
        UnknownColumnError
            If no column matches.
        AmbiguousColumnError
            If an unqualified *name* matches several columns.
        """
        if table is not None:
            key = f"{table}.{name}".lower()
            index = self._by_qualified.get(key)
            if index is None:
                raise UnknownColumnError(f"no column {table}.{name!s} in schema")
            return index
        matches = [
            i
            for i, column in enumerate(self._columns)
            if column.name.lower() == name.lower()
        ]
        if not matches:
            raise UnknownColumnError(f"no column {name!r} in schema")
        if len(matches) > 1:
            candidates = ", ".join(
                self._columns[i].qualified_name for i in matches
            )
            raise AmbiguousColumnError(
                f"column {name!r} is ambiguous; candidates: {candidates}"
            )
        return matches[0]

    def column(self, name: str, table: str | None = None) -> Column:
        """The column named *name* (see :meth:`index_of` for errors)."""
        return self._columns[self.index_of(name, table)]

    def has_column(self, name: str, table: str | None = None) -> bool:
        """Whether lookup of *name* would succeed unambiguously."""
        try:
            self.index_of(name, table)
        except (UnknownColumnError, AmbiguousColumnError):
            return False
        return True

    # -- sequence protocol ----------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self._columns)

    @property
    def types(self) -> tuple[DataType, ...]:
        return tuple(column.dtype for column in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __getitem__(self, index: int) -> Column:
        return self._columns[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - display only
        body = ", ".join(str(column) for column in self._columns)
        return f"Schema({body})"
