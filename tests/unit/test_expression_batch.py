"""Batch expression kernels: `evaluate_batch` matches row-at-a-time
`evaluate` element-wise, including NULL handling, error behaviour, and the
generic fallback for the one expression without a kernel (``CASE``)."""

from __future__ import annotations

import pytest

from repro.algebra import col, lit
from repro.algebra.expressions import (
    Arithmetic,
    Between,
    CaseExpression,
    Comparison,
    FunctionCall,
    InList,
    IsNull,
    Like,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Negate,
)
from repro.errors import ExecutionError
from repro.storage import Schema
from repro.storage.types import BOOLEAN, INTEGER, REAL, TEXT

SCHEMA = Schema.of(
    ("name", TEXT), ("qty", INTEGER), ("price", REAL), ("active", BOOLEAN),
    table="items",
)

# Column-major data with NULLs sprinkled through every column.
COLUMNS = (
    ["widget", "gadget", None, "gizmo", "widget"],
    [3, None, 7, 0, -2],
    [2.5, 0.0, None, 4.0, 1.5],
    [True, False, None, True, False],
)
COUNT = 5
ROWS = list(zip(*COLUMNS))


def batch_equals_scalar(expression):
    bound = expression.bind(SCHEMA)
    batch = bound.evaluate_batch(COLUMNS, COUNT)
    scalar = [bound.evaluate(row) for row in ROWS]
    assert batch == scalar
    return bound


@pytest.mark.parametrize(
    "expression",
    [
        lit(42),
        lit(None),
        lit("x"),
        col("name"),
        col("qty"),
        Arithmetic("+", col("qty"), lit(1)),
        Arithmetic("*", col("price"), col("qty")),
        Arithmetic("-", col("qty"), col("price")),
        Arithmetic("+", col("name"), lit("!")),  # TEXT concat
        Arithmetic("+", col("qty"), lit(None)),  # NULL literal operand
        Negate(col("qty")),
        Comparison("<", col("qty"), lit(5)),
        Comparison("=", col("name"), lit("widget")),
        Comparison("<>", col("price"), lit(2.5)),
        Comparison(">=", col("qty"), col("price")),
        LogicalAnd(
            Comparison(">", col("qty"), lit(0)), col("active")
        ),
        LogicalOr(
            Comparison("<", col("qty"), lit(0)), col("active")
        ),
        LogicalNot(col("active")),
        IsNull(col("price")),
        IsNull(col("price"), negated=True),
        Like(col("name"), "w%"),
        Like(col("name"), "%dge%", negated=True),
        InList(col("name"), [lit("widget"), lit("gizmo")]),
        InList(col("qty"), [lit(3), lit(None)], negated=True),
        Between(col("qty"), lit(0), lit(5)),
        Between(col("price"), col("qty"), lit(10.0), negated=True),
    ],
    ids=lambda e: e.bind(SCHEMA).display,
)
def test_batch_matches_scalar(expression):
    batch_equals_scalar(expression)


def test_empty_batch():
    bound = Comparison("<", col("qty"), lit(5)).bind(SCHEMA)
    assert bound.evaluate_batch(tuple([] for _ in SCHEMA), 0) == []


def test_fallback_expressions_have_no_kernel_but_still_batch():
    """CASE is the one row fallback: every other expression — the scalar
    functions included — has a kernel derived from its definition."""
    case = CaseExpression(
        [(Comparison(">", col("qty"), lit(0)), lit("pos"))], lit("neg")
    )
    bound = case.bind(SCHEMA)
    assert not bound.has_batch_kernel
    assert bound.evaluate_batch(COLUMNS, COUNT) == [
        bound.evaluate(row) for row in ROWS
    ]
    for function in (
        FunctionCall("ABS", [col("qty")]),
        FunctionCall("ROUND", [col("price"), lit(1)]),
        FunctionCall("UPPER", [col("name")]),
    ):
        assert batch_equals_scalar(function).has_batch_kernel


def test_kernel_flag_set_for_vectorized_expressions():
    assert Comparison("<", col("qty"), lit(5)).bind(SCHEMA).has_batch_kernel
    assert col("name").bind(SCHEMA).has_batch_kernel
    assert lit(1).bind(SCHEMA).has_batch_kernel


def test_division_by_zero_raises_same_error():
    bound = Arithmetic("/", lit(10), col("qty")).bind(SCHEMA)
    with pytest.raises(ExecutionError) as batch_error:
        bound.evaluate_batch(COLUMNS, COUNT)
    with pytest.raises(ExecutionError) as scalar_error:
        for row in ROWS:
            bound.evaluate(row)
    assert str(batch_error.value) == str(scalar_error.value)


def test_logical_and_masks_guarded_division():
    """`qty <> 0 AND 10/qty > 1` must not divide where the guard failed."""
    guarded = LogicalAnd(
        Comparison("<>", col("qty"), lit(0)),
        Comparison(">", Arithmetic("/", lit(10), col("qty")), lit(1)),
    )
    bound = guarded.bind(SCHEMA)
    batch = bound.evaluate_batch(COLUMNS, COUNT)
    assert batch == [bound.evaluate(row) for row in ROWS]


def test_logical_or_masks_guarded_division():
    guarded = LogicalOr(
        Comparison("=", col("qty"), lit(0)),
        Comparison(">", Arithmetic("/", lit(10), col("qty")), lit(1)),
    )
    bound = guarded.bind(SCHEMA)
    batch = bound.evaluate_batch(COLUMNS, COUNT)
    assert batch == [bound.evaluate(row) for row in ROWS]


def test_columnref_batch_aliases_input_column():
    """ColumnRef returns the input list itself — callers must not mutate."""
    bound = col("qty").bind(SCHEMA)
    assert bound.evaluate_batch(COLUMNS, COUNT) is COLUMNS[1]


def test_in_list_evaluates_every_option_on_both_paths():
    """``IN`` is a function of all its operands' values: an option that
    raises raises on every row, found or not, row by row and in batch."""
    bound = InList(col("qty"), [lit(3), Arithmetic("/", lit(1), lit(0))]).bind(
        SCHEMA
    )
    with pytest.raises(ExecutionError, match="division by zero in") as scalar:
        bound.evaluate(ROWS[0])  # qty = 3 matches the first option
    with pytest.raises(ExecutionError) as batch:
        bound.evaluate_batch(COLUMNS, COUNT)
    assert str(batch.value) == str(scalar.value)
