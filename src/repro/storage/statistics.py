"""Table and column statistics.

Collected on demand from a table (no background maintenance — the paper's
workloads are static during a query session).  Used by the optimizer's
join-ordering pass to estimate intermediate cardinalities, and handy for
data-quality dashboards next to
:func:`~repro.policy.table_confidence_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .table import Table

__all__ = ["ColumnStatistics", "TableStatistics", "collect_statistics"]


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary of one column's values."""

    name: str
    row_count: int
    null_count: int
    distinct_count: int
    minimum: Any = None  # numeric columns only
    maximum: Any = None

    @property
    def null_fraction(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count

    def selectivity_equals(self) -> float:
        """Estimated fraction of rows matching ``column = constant``.

        The classic uniform-distinct assumption: 1 / NDV over non-null
        rows.
        """
        if self.row_count == 0 or self.distinct_count == 0:
            return 0.0
        non_null = self.row_count - self.null_count
        return (non_null / self.row_count) / self.distinct_count


@dataclass(frozen=True)
class TableStatistics:
    """Row count plus per-column statistics for one table."""

    table: str
    row_count: int
    columns: dict[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics:
        return self.columns[name.lower()]


def collect_statistics(table: Table) -> TableStatistics:
    """One full scan computing exact statistics for *table*."""
    row_count = len(table)
    nulls = [0] * len(table.schema)
    distinct: list[set] = [set() for _ in table.schema]
    minima: list[Any] = [None] * len(table.schema)
    maxima: list[Any] = [None] * len(table.schema)
    numeric = [column.dtype.is_numeric for column in table.schema]

    for row in table.scan():
        for index, value in enumerate(row.values):
            if value is None:
                nulls[index] += 1
                continue
            distinct[index].add(value)
            if numeric[index]:
                if minima[index] is None or value < minima[index]:
                    minima[index] = value
                if maxima[index] is None or value > maxima[index]:
                    maxima[index] = value

    columns = {}
    for index, column in enumerate(table.schema):
        columns[column.name.lower()] = ColumnStatistics(
            name=column.name,
            row_count=row_count,
            null_count=nulls[index],
            distinct_count=len(distinct[index]),
            minimum=minima[index],
            maximum=maxima[index],
        )
    return TableStatistics(table.name, row_count, columns)
