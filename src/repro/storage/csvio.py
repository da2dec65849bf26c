"""CSV import/export for annotated tables.

The on-disk format is ordinary CSV with an optional reserved column
``__confidence__`` holding each row's confidence.  Values are parsed against
the target schema (empty cells become NULL).  Export writes the confidence
column last so round-trips preserve annotations.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, TextIO

from ..cost import CostModel
from ..errors import SchemaError
from .durability.atomic import atomic_text_writer
from .table import Table
from .types import DataType

__all__ = ["load_csv", "dump_csv", "CONFIDENCE_COLUMN"]

CONFIDENCE_COLUMN = "__confidence__"

_TRUE_LITERALS = {"true", "t", "1", "yes"}
_FALSE_LITERALS = {"false", "f", "0", "no"}


def _parse_cell(text: str, dtype: DataType) -> Any:
    if text == "":
        return None
    if dtype is DataType.TEXT:
        return text
    if dtype is DataType.INTEGER:
        try:
            return int(text)
        except ValueError:
            raise SchemaError(f"cannot parse {text!r} as INTEGER") from None
    if dtype is DataType.REAL:
        try:
            return float(text)
        except ValueError:
            raise SchemaError(f"cannot parse {text!r} as REAL") from None
    if dtype is DataType.BOOLEAN:
        lowered = text.strip().lower()
        if lowered in _TRUE_LITERALS:
            return True
        if lowered in _FALSE_LITERALS:
            return False
        raise SchemaError(f"cannot parse {text!r} as BOOLEAN")
    raise SchemaError(f"unsupported type {dtype}")  # pragma: no cover


def load_csv(
    table: Table,
    source: str | Path | TextIO,
    default_confidence: float = 1.0,
    cost_model: CostModel | None = None,
) -> int:
    """Load rows from *source* into *table*; returns the row count.

    The CSV header must contain every schema column (case-insensitive);
    extra columns other than ``__confidence__`` are rejected to catch schema
    drift early.  Malformed cells raise :class:`~repro.errors.SchemaError`
    naming the file, row number and column, and ``__confidence__`` values
    must be numbers in [0, 1]; a file with a bad line loads no row at all.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            return load_csv(table, handle, default_confidence, cost_model)

    source_name = getattr(source, "name", "<csv>")
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        return 0
    header_lower = [cell.strip().lower() for cell in header]
    positions: list[int] = []
    for column in table.schema:
        try:
            positions.append(header_lower.index(column.name.lower()))
        except ValueError:
            raise SchemaError(
                f"CSV is missing column {column.name!r} for table "
                f"{table.name!r}"
            ) from None
    confidence_position = (
        header_lower.index(CONFIDENCE_COLUMN)
        if CONFIDENCE_COLUMN in header_lower
        else None
    )
    known = set(positions)
    if confidence_position is not None:
        known.add(confidence_position)
    extras = [header[i] for i in range(len(header)) if i not in known]
    if extras:
        raise SchemaError(
            f"CSV has columns {extras!r} not in table {table.name!r}"
        )

    rows, confidences = [], []
    for row_number, row in enumerate(reader, start=2):  # 1 is the header
        if not row:
            continue
        values = []
        for position, column in zip(positions, table.schema):
            try:
                values.append(_parse_cell(row[position], column.dtype))
            except SchemaError as error:
                raise SchemaError(
                    f"{source_name}: row {row_number}, "
                    f"column {column.name!r}: {error}"
                ) from None
        confidence = default_confidence
        if confidence_position is not None and row[confidence_position] != "":
            cell = row[confidence_position]
            try:
                confidence = float(cell)
            except ValueError:
                raise SchemaError(
                    f"{source_name}: row {row_number}, "
                    f"column {CONFIDENCE_COLUMN!r}: "
                    f"cannot parse {cell!r} as a confidence"
                ) from None
            if not 0.0 <= confidence <= 1.0:
                raise SchemaError(
                    f"{source_name}: row {row_number}, "
                    f"column {CONFIDENCE_COLUMN!r}: "
                    f"confidence {confidence} outside [0, 1]"
                )
        rows.append(values)
        confidences.append(confidence)
    # Every line parsed: the file is one mutation.
    return len(table.insert_rows(rows, confidences, cost_model))


def dump_csv(table: Table, target: str | Path | TextIO) -> int:
    """Write *table* (with confidences) to CSV; returns the row count.

    Path targets are written atomically (temp file + fsync + rename), so
    a crash mid-export never leaves a truncated file where a previous
    export's data used to be.
    """
    if isinstance(target, (str, Path)):
        with atomic_text_writer(target, newline="") as handle:
            return dump_csv(table, handle)

    writer = csv.writer(target)
    writer.writerow([*table.schema.names, CONFIDENCE_COLUMN])
    count = 0
    for row in table.scan():
        cells = ["" if value is None else value for value in row.values]
        writer.writerow([*cells, row.confidence])
        count += 1
    return count
