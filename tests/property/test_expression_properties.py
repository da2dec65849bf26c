"""Property: an expression's batch forms agree with its row evaluator.

Random bound expression trees of every kind — arithmetic (``/`` and ``%``
included), negation, comparisons (column against literal too), ``NOT``,
``IS [NOT] NULL``, ``LIKE``, ``IN``, ``BETWEEN``, the scalar functions and
``CASE``, under nested ``AND`` / ``OR`` / ``NOT`` and guards such as
``x <> 0 AND 10 / x > 1`` — over columns that hold NULLs and zero
divisors.  Three things are checked against the per-row
:meth:`BoundExpression.evaluate` loop:

* :meth:`~BoundExpression.evaluate_batch` returns the same values, of the
  same types;
* :meth:`~BoundExpression.select` over random ascending rows, and over
  every row (a filter's call), returns the rows where the loop yields
  True and those where it yields NULL;
* where exactly one row makes the loop raise, both raise the same error
  with the same message (and where several do, both still raise).

The columns are handed over as plain lists, as a table's
:class:`~repro.storage.tuples.ColumnView` and as a
:class:`~repro.storage.tuples.Selection`, the three shapes a kernel sees.
"""

from __future__ import annotations

from functools import cache

from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

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
    col,
    lit,
)
from repro.errors import BindError
from repro.storage import BOOLEAN, INTEGER, REAL, TEXT, Schema
from repro.storage.tuples import ColumnView, Selection

SCHEMA = Schema.of(
    ("x", INTEGER), ("y", INTEGER), ("r", REAL), ("s", TEXT), ("flag", BOOLEAN)
)
NULL = lit(None)

values = {
    "x": st.one_of(st.none(), st.integers(-2, 3)),
    "y": st.one_of(st.none(), st.integers(-2, 3)),
    "r": st.one_of(st.none(), st.sampled_from([0.0, 0.5, -1.5, 2.0])),
    "s": st.one_of(st.none(), st.sampled_from(["", "ab", "x1", "x12", "B"])),
    "flag": st.one_of(st.none(), st.booleans()),
}
table_rows = st.lists(st.tuples(*values.values()), max_size=10)

numeric_columns = st.sampled_from([col("x"), col("y"), col("r")])
numeric_leaves = st.one_of(
    numeric_columns,
    st.integers(-1, 2).map(lit),
    st.just(lit(0.5)),
)
text_leaves = st.sampled_from([col("s"), lit("x"), lit("ab")])


def _case(condition, result, default):
    return CaseExpression([(condition, result)], default)


@cache
def numeric(depth: int) -> st.SearchStrategy:
    if depth == 0:
        return numeric_leaves
    sub = numeric(depth - 1)
    return st.one_of(
        numeric_leaves,
        st.builds(
            Arithmetic, st.sampled_from("+-*/%"), sub, st.one_of(sub, st.just(NULL))
        ),
        # A divisor column: a zero in it raises unless a guard holds.
        st.builds(Arithmetic, st.sampled_from("/%"), sub, numeric_columns),
        st.builds(Negate, sub),
        st.builds(lambda e: FunctionCall("ABS", [e]), sub),
        st.builds(
            lambda e, digits: FunctionCall("ROUND", [e, *digits]),
            sub,
            st.sampled_from([[], [lit(1)]]),
        ),
        st.builds(lambda e: FunctionCall("LENGTH", [e]), text(depth - 1)),
        st.builds(_case, boolean(depth - 1), sub, st.one_of(sub, st.just(None))),
    )


@cache
def text(depth: int) -> st.SearchStrategy:
    if depth == 0:
        return text_leaves
    sub = text(depth - 1)
    return st.one_of(
        text_leaves,
        st.builds(Arithmetic, st.just("+"), sub, sub),
        st.builds(
            lambda name, e: FunctionCall(name, [e]),
            st.sampled_from(["LOWER", "UPPER"]),
            sub,
        ),
        st.builds(_case, boolean(depth - 1), sub, sub),
    )


def _divides(column):
    """``10 / c > 1``: raises at a row where ``c`` is zero."""
    return Comparison(">", Arithmetic("/", lit(10), column), lit(1))


def _guard(column):
    """``c <> 0 AND 10 / c > 1``: the division runs only where it may."""
    return LogicalAnd(Comparison("<>", column, lit(0)), _divides(column))


@cache
def boolean(depth: int) -> st.SearchStrategy:
    operand = numeric(max(depth - 1, 0))
    words = text(max(depth - 1, 0))
    negated = st.booleans()
    leaves = st.one_of(
        st.just(col("flag")),
        st.builds(
            Comparison,
            st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
            operand,
            st.one_of(operand, st.just(NULL)),
        ),
        st.builds(
            Comparison, st.sampled_from(["=", "<>", "<", ">="]), words, words
        ),
        st.builds(IsNull, st.one_of(operand, words), negated),
        st.builds(
            Like, words, st.sampled_from(["x%", "%1", "_b%", "ab", "%"]), negated
        ),
        st.builds(
            InList,
            operand,
            st.lists(st.one_of(operand, st.just(NULL)), min_size=1, max_size=3),
            negated,
        ),
        st.builds(
            Between, operand, operand, st.one_of(operand, st.just(NULL)), negated
        ),
        st.builds(_guard, numeric_columns),
        st.builds(_divides, numeric_columns),
    )
    if depth == 0:
        return leaves
    sub = boolean(depth - 1)
    return st.one_of(
        leaves,
        st.builds(LogicalAnd, sub, sub),
        st.builds(LogicalOr, sub, sub),
        st.builds(LogicalNot, sub),
        st.builds(_case, sub, sub, sub),
    )


#: Half the trees are predicates, so :meth:`select` is checked often.
expressions = st.one_of(boolean(2), boolean(3), numeric(2), text(2))


def _outcome(call):
    """``("value", typed values)`` or ``("error", type, message)``."""
    try:
        result = call()
    except Exception as error:  # noqa: BLE001 - compared, not swallowed
        return ("error", type(error), str(error))
    if isinstance(result, tuple):  # a selection
        return ("value", tuple(list(part) for part in result))
    return ("value", [(type(value), value) for value in result])


def _agrees(got, row_outcomes, expected):
    errors = [outcome for outcome in row_outcomes if outcome[0] == "error"]
    event(f"rows raising: {min(len(errors), 2)}")
    if not errors:
        assert got == ("value", expected)
    elif len(errors) == 1:
        assert got == errors[0]
    else:
        assert got[0] == "error"
        assert got[1] in {error[1] for error in errors}


ROWS = [
    (0, 1, None, "x1", True),
    (None, 0, 0.5, None, True),
    (2, None, 0.0, "ab", None),
]


@settings(max_examples=400, deadline=None)
# An OR whose right side is True at a row where its left is, and a
# guarded division over a zero and a NULL divisor.
@example(
    LogicalOr(col("flag"), IsNull(col("s"))), ROWS, [True] * 10, "lists"
)
@example(_guard(col("x")), ROWS, [True] * 10, "view")
@given(
    expression=expressions,
    rows=table_rows,
    mask=st.lists(st.booleans(), min_size=10, max_size=10),
    shape=st.sampled_from(["lists", "view", "selection"]),
)
def test_batch_and_selection_agree_with_the_row_loop(expression, rows, mask, shape):
    try:
        bound = expression.bind(SCHEMA)
    except BindError:
        reject()
    count = len(rows)
    lists = [list(column) for column in zip(*rows)] or [[] for _ in SCHEMA]
    if shape == "view":
        columns = ColumnView(lists)
    elif shape == "selection":
        columns = Selection(((lists, range(count)),), len(lists))
    else:
        columns = tuple(lists)
    per_row = [_outcome(lambda row=row: [bound.evaluate(row)]) for row in rows]
    values_ = [outcome[1][0] for outcome in per_row if outcome[0] == "value"]

    _agrees(_outcome(lambda: bound.evaluate_batch(columns, count)), per_row, values_)

    if bound.dtype is not BOOLEAN:
        return
    true, null = ("value", [(bool, True)]), ("value", [(type(None), None)])
    for picked in ([i for i in range(count) if mask[i]], range(count)):
        outcomes = [per_row[i] for i in picked]
        expected = (
            [i for i, outcome in zip(picked, outcomes) if outcome == true],
            [i for i, outcome in zip(picked, outcomes) if outcome == null],
        )
        _agrees(_outcome(lambda: bound.select(columns, picked)), outcomes, expected)
