"""Scalar expressions over relation rows.

Expressions are built unbound (column references are names), then *bound*
against a concrete :class:`~repro.storage.schema.Schema` to produce a
:class:`BoundExpression` — a typed evaluator that reads values positionally.
The SQL planner and the direct algebra API both go through :meth:`bind`.

Each operator's semantics is written once.  A pointwise operator —
arithmetic, negation, comparison, ``NOT``, ``IS NULL``, ``LIKE``, ``IN``,
``BETWEEN``, a scalar function — is a function of its operands' values,
and :func:`_pointwise` derives both its row evaluator and its batch
kernel from it.  ``AND`` and ``OR`` are defined by their selection
(:meth:`BoundExpression.select`), their batch form read back from it.
``CASE`` is the one expression evaluated row by row inside a batch.

Semantics follow SQL:

* ``NULL`` propagates through arithmetic and comparisons (both yield NULL),
  the strict rule :func:`_pointwise` applies;
* ``AND``/``OR``/``NOT`` use Kleene three-valued logic;
* ``WHERE`` keeps a row only when the predicate is *true* (not NULL), as
  :meth:`BoundExpression.select` finds it; an ``AND``'s right side runs
  on the rows its left left not False, an ``OR``'s on those its left
  left not True, as the scalar forms do;
* ``LIKE`` supports ``%`` and ``_`` wildcards;
* division by zero raises :class:`~repro.errors.ExecutionError` (strict mode,
  catching workload bugs early) rather than yielding NULL.
"""

from __future__ import annotations

import operator
import re
from functools import partial
from typing import Any, Callable, Sequence

from ..errors import BindError, ExecutionError, TypeMismatchError
from ..storage.schema import Schema
from ..storage.tuples import ColumnView, Selection, selection_parts
from ..storage.types import BOOLEAN, INTEGER, REAL, TEXT, DataType, common_type, is_comparable

__all__ = [
    "Expression",
    "BoundExpression",
    "Literal",
    "ColumnRef",
    "Arithmetic",
    "Comparison",
    "LogicalAnd",
    "LogicalOr",
    "LogicalNot",
    "IsNull",
    "Like",
    "InList",
    "Between",
    "Negate",
    "FunctionCall",
    "CaseExpression",
    "col",
    "lit",
]


class BoundExpression:
    """A compiled expression: a result type plus a positional evaluator.

    Binding resolves every column reference to a positional index once per
    plan, so neither the scalar nor the batch path chases names per row.
    Every expression but ``CASE`` carries a *batch* kernel ``(columns,
    count) -> list`` derived from the same definition as its evaluator
    (a leaf's, a pointwise operator's value function, or a connective's
    selection); ``CASE`` falls back to per-row scalar evaluation inside
    :meth:`evaluate_batch`, so it still runs batched.
    """

    __slots__ = ("dtype", "_evaluate", "display", "_batch", "_select")

    def __init__(
        self,
        dtype: DataType,
        evaluate: Callable[[tuple[Any, ...]], Any],
        display: str,
        batch: Callable[[Sequence[list], int], list] | None = None,
        select: Callable[[Sequence[list], Sequence[int]], Any] | None = None,
    ) -> None:
        self.dtype = dtype
        self._evaluate = evaluate
        self.display = display
        self._batch = batch
        self._select = select

    def evaluate(self, values: tuple[Any, ...]) -> Any:
        """The expression's value on one row's *values*."""
        return self._evaluate(values)

    def evaluate_batch(self, columns: Sequence[list], count: int) -> list:
        """The expression's value on every row of a column batch.

        *columns* holds one value list per schema column, each of length
        *count*.  The returned list may alias an input column (e.g. a bare
        column reference), so callers must treat both inputs and outputs
        as read-only.  Row-level results and raised errors match
        :meth:`evaluate` row by row; when two sub-expressions would each
        raise, batch order may surface a different one first (columnar
        kernels re-run the operator row-at-a-time on error to report the
        exact native diagnostic).
        """
        if count == 0:
            return []
        if self._batch is not None:
            return self._batch(columns, count)
        evaluate = self._evaluate
        if not columns:  # zero-column batches cannot occur via Schema
            return [evaluate(()) for _ in range(count)]
        return [evaluate(values) for values in zip(*columns)]

    def select(
        self, columns: Sequence[list], rows: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """The rows among *rows* (ascending indexes into whole *columns*)
        where the expression is True, and those where it is NULL.  An own
        selection (``AND``, ``OR``, a column compared with a literal)
        reads its own columns at *rows* only, or declines with ``None``;
        the default runs :meth:`evaluate_batch` over *columns* read
        through *rows*, each column gathered only if the expression
        reads it.  Errors are those :meth:`evaluate` raises on the same
        rows."""
        if not rows:
            return [], []
        if self._select is not None:
            picked = self._select(columns, rows)
            if picked is not None:
                return picked
        if len(rows) != len(columns[0]):
            columns = Selection(selection_parts(columns, rows, {}), len(columns))
        flags = self.evaluate_batch(columns, len(rows))
        return (
            [i for i, flag in zip(rows, flags) if flag is True],
            [i for i, flag in zip(rows, flags) if flag is None],
        )

    @property
    def has_batch_kernel(self) -> bool:
        """True when a vectorized kernel exists (``CASE`` has none)."""
        return self._batch is not None

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"BoundExpression({self.display}:{self.dtype})"


class Expression:
    """Base class for unbound scalar expressions."""

    def bind(self, schema: Schema) -> BoundExpression:
        """Resolve column names against *schema* and type-check."""
        raise NotImplementedError

    def references(self) -> set[tuple[str | None, str]]:
        """The ``(table, column)`` names this expression reads."""
        return set()

    # Sugar for building predicates fluently in the algebra API / tests.

    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("=", self, _wrap(other))

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("<>", self, _wrap(other))

    def __lt__(self, other: object) -> "Comparison":
        return Comparison("<", self, _wrap(other))

    def __le__(self, other: object) -> "Comparison":
        return Comparison("<=", self, _wrap(other))

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(">", self, _wrap(other))

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(">=", self, _wrap(other))

    def __add__(self, other: object) -> "Arithmetic":
        return Arithmetic("+", self, _wrap(other))

    def __sub__(self, other: object) -> "Arithmetic":
        return Arithmetic("-", self, _wrap(other))

    def __mul__(self, other: object) -> "Arithmetic":
        return Arithmetic("*", self, _wrap(other))

    def __truediv__(self, other: object) -> "Arithmetic":
        return Arithmetic("/", self, _wrap(other))

    def __and__(self, other: object) -> "LogicalAnd":
        return LogicalAnd(self, _wrap(other))

    def __or__(self, other: object) -> "LogicalOr":
        return LogicalOr(self, _wrap(other))

    def __invert__(self) -> "LogicalNot":
        return LogicalNot(self)

    def __hash__(self) -> int:
        return id(self)

    def is_null(self) -> "IsNull":
        return IsNull(self, negated=False)

    def is_not_null(self) -> "IsNull":
        return IsNull(self, negated=True)

    def like(self, pattern: str) -> "Like":
        return Like(self, pattern)

    def in_(self, options: Sequence[object]) -> "InList":
        return InList(self, [_wrap(option) for option in options])

    def between(self, low: object, high: object) -> "Between":
        return Between(self, _wrap(low), _wrap(high))


def _wrap(value: object) -> Expression:
    if isinstance(value, Expression):
        return value
    return Literal(value)


def _is_null_literal(expression: Expression) -> bool:
    """NULL literals are polymorphic: they satisfy any operand type."""
    return isinstance(expression, Literal) and expression.value is None


def col(name: str) -> "ColumnRef":
    """Column reference; ``col("t.c")`` parses the qualifier."""
    table, _, column = name.rpartition(".")
    return ColumnRef(column, table or None)


def lit(value: object) -> "Literal":
    """Literal constant expression."""
    return Literal(value)


def _constant(dtype: DataType, value: Any, display: str) -> BoundExpression:
    return BoundExpression(
        dtype,
        lambda _values: value,
        display,
        batch=lambda _columns, count: [value] * count,
    )


def _pointwise(
    dtype: DataType,
    display: str,
    function: Callable[..., Any],
    operands: Sequence[BoundExpression],
    strict: bool = True,
    select: Callable[[Sequence[list], Sequence[int]], Any] | None = None,
    by_zero: str | None = None,
) -> BoundExpression:
    """An operator defined once, by *function* of its operands' values:
    the evaluator applies it to one row's values, the batch kernel to
    each row of the operands' batches.  A *strict* operator is NULL
    wherever an operand is, and *function* never sees a NULL; a
    non-strict one (``IS NULL``, ``IN``) sees every value.  Where
    *function* divides, Python's ``ZeroDivisionError`` is raised as the
    SQL error *by_zero*."""
    if not strict:
        reads = [operand.evaluate for operand in operands]

        def evaluate(values: tuple[Any, ...]) -> Any:
            return function(*[read(values) for read in reads])

        def batch(columns: Sequence[list], count: int) -> list:
            return list(
                map(function, *[o.evaluate_batch(columns, count) for o in operands])
            )

    elif len(operands) == 1:
        (operand,) = operands
        read = operand.evaluate

        def evaluate(values: tuple[Any, ...]) -> Any:
            a = read(values)
            return None if a is None else function(a)

        def batch(columns: Sequence[list], count: int) -> list:
            column = operand.evaluate_batch(columns, count)
            return [None if a is None else function(a) for a in column]

    elif len(operands) == 2:
        left, right = operands
        read_left, read_right = left.evaluate, right.evaluate

        def evaluate(values: tuple[Any, ...]) -> Any:
            a = read_left(values)
            b = read_right(values)
            return None if a is None or b is None else function(a, b)

        def batch(columns: Sequence[list], count: int) -> list:
            return [
                None if a is None or b is None else function(a, b)
                for a, b in zip(
                    left.evaluate_batch(columns, count),
                    right.evaluate_batch(columns, count),
                )
            ]

    else:  # BETWEEN
        read_value, read_low, read_high = [operand.evaluate for operand in operands]

        def evaluate(values: tuple[Any, ...]) -> Any:
            a = read_value(values)
            b = read_low(values)
            c = read_high(values)
            return None if a is None or b is None or c is None else function(a, b, c)

        def batch(columns: Sequence[list], count: int) -> list:
            triples = zip(*[o.evaluate_batch(columns, count) for o in operands])
            return [
                None if a is None or b is None or c is None else function(a, b, c)
                for a, b, c in triples
            ]

    if by_zero is not None:
        evaluate = partial(_reword_zero_division, by_zero, evaluate)
        batch = partial(_reword_zero_division, by_zero, batch)
    return BoundExpression(dtype, evaluate, display, batch=batch, select=select)


def _real(function: Callable[..., Any], *args: Any) -> float:
    return float(function(*args))


def _reword_zero_division(
    message: str, function: Callable[..., Any], *args: Any
) -> Any:
    try:
        return function(*args)
    except ZeroDivisionError:
        raise ExecutionError(message) from None


class Literal(Expression):
    """A constant. NULL literals get TEXT type (only comparable to NULL)."""

    def __init__(self, value: object) -> None:
        self.value = value

    def bind(self, schema: Schema) -> BoundExpression:
        value = self.value
        if value is None:
            dtype = TEXT
        elif isinstance(value, bool):
            dtype = BOOLEAN
        elif isinstance(value, int):
            dtype = INTEGER
        elif isinstance(value, float):
            dtype = REAL
        elif isinstance(value, str):
            dtype = TEXT
        else:
            raise BindError(f"unsupported literal {value!r}")
        return _constant(dtype, value, repr(value))

    def __hash__(self) -> int:
        return hash(("lit", self.value))


class ColumnRef(Expression):
    """A reference to a named (optionally table-qualified) column."""

    def __init__(self, name: str, table: str | None = None) -> None:
        self.name = name
        self.table = table

    def bind(self, schema: Schema) -> BoundExpression:
        index = schema.index_of(self.name, self.table)
        column = schema[index]
        return BoundExpression(
            column.dtype,
            lambda values, i=index: values[i],
            column.qualified_name,
            # Returns the input column itself (read-only contract).
            batch=lambda columns, _count, i=index: columns[i],
        )

    def references(self) -> set[tuple[str | None, str]]:
        return {(self.table, self.name)}

    def __hash__(self) -> int:
        return hash(("col", self.table, self.name))


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}
_BY_ZERO = {"/": "division", "%": "modulo"}


class Arithmetic(Expression):
    """Binary arithmetic (``+ - * / %``) over numeric operands."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITH_OPS:
            raise BindError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> BoundExpression:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        display = f"({left.display} {self.op} {right.display})"
        if _is_null_literal(self.left) or _is_null_literal(self.right):
            # NULL arithmetic is NULL regardless of the other operand.
            other = right if _is_null_literal(self.left) else left
            dtype = other.dtype if other.dtype.is_numeric else REAL
            return _constant(dtype, None, display)
        if self.op == "+" and left.dtype is TEXT and right.dtype is TEXT:
            # String concatenation convenience.
            return _pointwise(TEXT, display, operator.add, (left, right))
        try:
            dtype = common_type(left.dtype, right.dtype)
        except TypeMismatchError as error:
            raise BindError(f"cannot apply {self.op!r}: {error}") from error
        operate = _ARITH_OPS[self.op]
        if self.op == "/":
            dtype = REAL  # true division yields a float already
        elif dtype is REAL:
            operate = partial(_real, operate)
        by_zero = None
        if self.op in _BY_ZERO:
            by_zero = f"{_BY_ZERO[self.op]} by zero in {display}"
        return _pointwise(dtype, display, operate, (left, right), by_zero=by_zero)

    def references(self) -> set[tuple[str | None, str]]:
        return self.left.references() | self.right.references()

    def __hash__(self) -> int:
        return hash(("arith", self.op, self.left, self.right))


class Negate(Expression):
    """Unary minus."""

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def bind(self, schema: Schema) -> BoundExpression:
        operand = self.operand.bind(schema)
        if not operand.dtype.is_numeric:
            raise BindError(f"cannot negate {operand.dtype}")
        return _pointwise(
            operand.dtype, f"-{operand.display}", operator.neg, (operand,)
        )

    def references(self) -> set[tuple[str | None, str]]:
        return self.operand.references()

    def __hash__(self) -> int:
        return hash(("neg", self.operand))


_COMPARE_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: ``column op value`` over *rows* as a selection: a comprehension that
#: calls nothing per row.
_PICK: dict[str, Callable[[list, Sequence[int], Any], list[int]]] = {
    "=": lambda column, rows, v: [i for i in rows if column[i] == v],
    "<>": lambda column, rows, v: [i for i in rows if column[i] != v],
    "<": lambda column, rows, v: [i for i in rows if column[i] < v],
    "<=": lambda column, rows, v: [i for i in rows if column[i] <= v],
    ">": lambda column, rows, v: [i for i in rows if column[i] > v],
    ">=": lambda column, rows, v: [i for i in rows if column[i] >= v],
}
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _select_literal(pick, index: int, value: Any, columns, rows) -> Any:
    """Column *index* compared with the non-NULL *value*, as a selection;
    declines over a column that holds a NULL.  A table's view knows whether
    one does (:meth:`ColumnView.holds_null`); any other column is scanned."""
    column = columns[index]
    if type(columns) is ColumnView:
        holds_null = columns.holds_null(index)
    else:
        holds_null = None in column
    return None if holds_null else (pick(column, rows, value), [])


class Comparison(Expression):
    """Binary comparison with SQL NULL propagation."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARE_OPS:
            raise BindError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> BoundExpression:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        null_literal = _is_null_literal(self.left) or _is_null_literal(self.right)
        if not null_literal and not is_comparable(left.dtype, right.dtype):
            raise BindError(
                f"cannot compare {left.dtype} with {right.dtype} "
                f"({left.display} {self.op} {right.display})"
            )
        column, op, other = self.left, self.op, self.right
        if isinstance(column, Literal):  # ``lit < col`` is ``col > lit``
            column, op, other = other, _FLIPPED[op], column
        select = None
        if isinstance(column, ColumnRef) and isinstance(other, Literal):
            if other.value is not None:
                index = schema.index_of(column.name, column.table)
                select = partial(_select_literal, _PICK[op], index, other.value)
        display = f"({left.display} {self.op} {right.display})"
        operate = _COMPARE_OPS[self.op]
        return _pointwise(BOOLEAN, display, operate, (left, right), select=select)

    def references(self) -> set[tuple[str | None, str]]:
        return self.left.references() | self.right.references()

    def __hash__(self) -> int:
        return hash(("cmp", self.op, self.left, self.right))


def _require_boolean(bound: BoundExpression, context: str) -> None:
    if bound.dtype is not BOOLEAN:
        raise BindError(f"{context} requires a boolean, got {bound.dtype}")


def _by_selection(
    evaluate: Callable[[tuple[Any, ...]], Any],
    display: str,
    select: Callable[[Sequence[list], Sequence[int]], Any],
) -> BoundExpression:
    """A connective defined by its selection: its batch form is the
    selection over every row, read back into a Kleene column."""

    def batch(columns: Sequence[list], count: int) -> list:
        true_rows, null_rows = select(columns, range(count))
        out: list[Any] = [False] * count
        for i in true_rows:
            out[i] = True
        for i in null_rows:
            out[i] = None
        return out

    return BoundExpression(BOOLEAN, evaluate, display, batch=batch, select=select)


class LogicalAnd(Expression):
    """Kleene AND: false dominates NULL."""

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> BoundExpression:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        _require_boolean(left, "AND")
        _require_boolean(right, "AND")

        def evaluate(values: tuple[Any, ...]) -> Any:
            a = left.evaluate(values)
            if a is False:
                return False
            b = right.evaluate(values)
            if b is False:
                return False
            if a is None or b is None:
                return None
            return True

        def select(columns: Sequence[list], rows: Sequence[int]) -> Any:
            # The right side runs where the scalar path runs it, on every
            # row the left left not False: a guard (``x <> 0 AND 10 / x >
            # 1``) still guards, and a NULL left still lets the right raise.
            true_left, null_left = left.select(columns, rows)
            if not null_left:
                return right.select(columns, true_left)
            pending = sorted(true_left + null_left)
            true_right, null_right = right.select(columns, pending)
            unknown = set(null_left)
            return (
                [i for i in true_right if i not in unknown],
                sorted(null_right + [i for i in true_right if i in unknown]),
            )

        return _by_selection(evaluate, f"({left.display} AND {right.display})", select)

    def references(self) -> set[tuple[str | None, str]]:
        return self.left.references() | self.right.references()

    def __hash__(self) -> int:
        return hash(("and", self.left, self.right))


class LogicalOr(Expression):
    """Kleene OR: true dominates NULL."""

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> BoundExpression:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        _require_boolean(left, "OR")
        _require_boolean(right, "OR")

        def evaluate(values: tuple[Any, ...]) -> Any:
            a = left.evaluate(values)
            if a is True:
                return True
            b = right.evaluate(values)
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        def select(columns: Sequence[list], rows: Sequence[int]) -> Any:
            # AND's mirror: the right side runs on every row the left
            # left not True, where the scalar path runs it.
            true_left, null_left = left.select(columns, rows)
            if true_left:
                decided = set(true_left)
                rows = [i for i in rows if i not in decided]
            true_right, null_right = right.select(columns, rows)
            settled = set(true_right).union(null_right)
            return (
                sorted(true_left + true_right),
                sorted(null_right + [i for i in null_left if i not in settled]),
            )

        return _by_selection(evaluate, f"({left.display} OR {right.display})", select)

    def references(self) -> set[tuple[str | None, str]]:
        return self.left.references() | self.right.references()

    def __hash__(self) -> int:
        return hash(("or", self.left, self.right))


class LogicalNot(Expression):
    """Kleene NOT: NOT NULL is NULL."""

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def bind(self, schema: Schema) -> BoundExpression:
        operand = self.operand.bind(schema)
        _require_boolean(operand, "NOT")
        return _pointwise(
            BOOLEAN, f"(NOT {operand.display})", operator.not_, (operand,)
        )

    def references(self) -> set[tuple[str | None, str]]:
        return self.operand.references()

    def __hash__(self) -> int:
        return hash(("not", self.operand))


class IsNull(Expression):
    """``expr IS [NOT] NULL`` — never yields NULL itself."""

    def __init__(self, operand: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def bind(self, schema: Schema) -> BoundExpression:
        operand = self.operand.bind(schema)
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        test = partial(operator.is_not if self.negated else operator.is_, None)
        display = f"({operand.display} {keyword})"
        return _pointwise(BOOLEAN, display, test, (operand,), strict=False)

    def references(self) -> set[tuple[str | None, str]]:
        return self.operand.references()

    def __hash__(self) -> int:
        return hash(("isnull", self.operand, self.negated))


class Like(Expression):
    """SQL ``LIKE`` with ``%`` (any run) and ``_`` (any character)."""

    def __init__(self, operand: Expression, pattern: str, negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def bind(self, schema: Schema) -> BoundExpression:
        operand = self.operand.bind(schema)
        if operand.dtype is not TEXT:
            raise BindError(f"LIKE requires TEXT, got {operand.dtype}")
        regex = re.compile(
            "^"
            + "".join(
                ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
                for ch in self.pattern
            )
            + "$",
            re.DOTALL,
        )
        match = regex.match
        if self.negated:
            keyword, like = "NOT LIKE", lambda value: match(value) is None
        else:
            keyword, like = "LIKE", lambda value: match(value) is not None
        display = f"({operand.display} {keyword} {self.pattern!r})"
        return _pointwise(BOOLEAN, display, like, (operand,))

    def references(self) -> set[tuple[str | None, str]]:
        return self.operand.references()

    def __hash__(self) -> int:
        return hash(("like", self.operand, self.pattern, self.negated))


class InList(Expression):
    """``expr IN (e1, …, en)`` with SQL NULL semantics."""

    def __init__(
        self,
        operand: Expression,
        options: Sequence[Expression],
        negated: bool = False,
    ) -> None:
        if not options:
            raise BindError("IN list must be non-empty")
        self.operand = operand
        self.options = list(options)
        self.negated = negated

    def bind(self, schema: Schema) -> BoundExpression:
        operand = self.operand.bind(schema)
        options = [option.bind(schema) for option in self.options]
        for option, unbound in zip(options, self.options):
            if _is_null_literal(unbound):
                continue
            if not is_comparable(operand.dtype, option.dtype):
                raise BindError(
                    f"IN operand {operand.dtype} incomparable with {option.dtype}"
                )
        negated = self.negated

        def member(value: Any, *candidates: Any) -> Any:
            # NULL unless the value is found, when a candidate is NULL.
            if value is None:
                return None
            for candidate in candidates:
                if candidate == value:
                    return not negated
            return None if None in candidates else negated

        keyword = "NOT IN" if negated else "IN"
        display = (
            f"({operand.display} {keyword} "
            f"({', '.join(option.display for option in options)}))"
        )
        operands = (operand, *options)
        return _pointwise(BOOLEAN, display, member, operands, strict=False)

    def references(self) -> set[tuple[str | None, str]]:
        refs = self.operand.references()
        for option in self.options:
            refs |= option.references()
        return refs

    def __hash__(self) -> int:
        return hash(("in", self.operand, tuple(self.options), self.negated))


class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive, NULL-propagating)."""

    def __init__(
        self,
        operand: Expression,
        low: Expression,
        high: Expression,
        negated: bool = False,
    ) -> None:
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def bind(self, schema: Schema) -> BoundExpression:
        operand = self.operand.bind(schema)
        low = self.low.bind(schema)
        high = self.high.bind(schema)
        for bound, unbound in ((low, self.low), (high, self.high)):
            if _is_null_literal(unbound):
                continue
            if not is_comparable(operand.dtype, bound.dtype):
                raise BindError(
                    f"BETWEEN bound {bound.dtype} incomparable with {operand.dtype}"
                )
        if self.negated:
            keyword, between = "NOT BETWEEN", lambda v, lo, hi: not lo <= v <= hi
        else:
            keyword, between = "BETWEEN", lambda v, lo, hi: lo <= v <= hi
        display = f"({operand.display} {keyword} {low.display} AND {high.display})"
        return _pointwise(BOOLEAN, display, between, (operand, low, high))

    def references(self) -> set[tuple[str | None, str]]:
        return (
            self.operand.references()
            | self.low.references()
            | self.high.references()
        )

    def __hash__(self) -> int:
        return hash(("between", self.operand, self.low, self.high, self.negated))


class CaseExpression(Expression):
    """``CASE WHEN c1 THEN r1 [WHEN ...] [ELSE d] END``.

    Conditions are evaluated in order with Kleene semantics; the first
    *true* branch's result is returned, the ELSE (or NULL) otherwise.  All
    result branches must share a type (numerics may mix and widen to REAL).
    """

    def __init__(
        self,
        whens: Sequence[tuple[Expression, Expression]],
        default: Expression | None = None,
    ) -> None:
        if not whens:
            raise BindError("CASE requires at least one WHEN branch")
        self.whens = list(whens)
        self.default = default

    def bind(self, schema: Schema) -> BoundExpression:
        bound_whens = [
            (condition.bind(schema), result.bind(schema))
            for condition, result in self.whens
        ]
        for condition, _result in bound_whens:
            _require_boolean(condition, "CASE WHEN")
        bound_default = (
            self.default.bind(schema) if self.default is not None else None
        )
        branches = [result for _condition, result in bound_whens]
        if bound_default is not None:
            branches.append(bound_default)
        null_flags = [
            _is_null_literal(result) for _condition, result in self.whens
        ]
        if self.default is not None:
            null_flags.append(_is_null_literal(self.default))
        typed = [
            bound
            for bound, is_null in zip(branches, null_flags)
            if not is_null
        ]
        if not typed:
            dtype = TEXT  # all branches NULL
        else:
            dtype = typed[0].dtype
            for branch in typed[1:]:
                if branch.dtype is dtype:
                    continue
                if branch.dtype.is_numeric and dtype.is_numeric:
                    dtype = REAL
                    continue
                raise BindError(
                    f"CASE branches mix {dtype} and {branch.dtype}"
                )

        def evaluate(values: tuple[Any, ...]) -> Any:
            for condition, result in bound_whens:
                if condition.evaluate(values) is True:
                    value = result.evaluate(values)
                    break
            else:
                if bound_default is None:
                    return None
                value = bound_default.evaluate(values)
            if value is None:
                return None
            if dtype is REAL and isinstance(value, int):
                return float(value)
            return value

        display = (
            "CASE "
            + " ".join(
                f"WHEN {condition.display} THEN {result.display}"
                for condition, result in bound_whens
            )
            + (f" ELSE {bound_default.display}" if bound_default else "")
            + " END"
        )
        return BoundExpression(dtype, evaluate, display)

    def references(self) -> set[tuple[str | None, str]]:
        refs: set[tuple[str | None, str]] = set()
        for condition, result in self.whens:
            refs |= condition.references() | result.references()
        if self.default is not None:
            refs |= self.default.references()
        return refs

    def __hash__(self) -> int:
        return hash(
            ("case", tuple(self.whens), self.default)
        )


_FUNCTIONS: dict[str, tuple[Callable[..., Any], int]] = {
    "ABS": (abs, 1),
    "LENGTH": (len, 1),
    "LOWER": (str.lower, 1),
    "UPPER": (str.upper, 1),
    "ROUND": (round, 2),
}


class FunctionCall(Expression):
    """Scalar function call: ABS, LENGTH, LOWER, UPPER, ROUND(x, digits)."""

    def __init__(self, name: str, arguments: Sequence[Expression]) -> None:
        self.name = name.upper()
        self.arguments = list(arguments)
        if self.name not in _FUNCTIONS:
            raise BindError(f"unknown function {name!r}")

    def bind(self, schema: Schema) -> BoundExpression:
        function, max_arity = _FUNCTIONS[self.name]
        if not 1 <= len(self.arguments) <= max_arity:
            raise BindError(
                f"{self.name} expects 1..{max_arity} arguments, "
                f"got {len(self.arguments)}"
            )
        arguments = [argument.bind(schema) for argument in self.arguments]
        first = arguments[0]
        if self.name == "ABS":
            if not first.dtype.is_numeric:
                raise BindError(f"ABS requires numeric, got {first.dtype}")
            dtype = first.dtype
        elif self.name == "ROUND":
            if not first.dtype.is_numeric:
                raise BindError(f"ROUND requires numeric, got {first.dtype}")
            dtype = REAL
        elif self.name == "LENGTH":
            if first.dtype is not TEXT:
                raise BindError(f"LENGTH requires TEXT, got {first.dtype}")
            dtype = INTEGER
        else:  # LOWER / UPPER
            if first.dtype is not TEXT:
                raise BindError(f"{self.name} requires TEXT, got {first.dtype}")
            dtype = TEXT
        if dtype is REAL:
            function = partial(_real, function)
        display = (
            f"{self.name}({', '.join(argument.display for argument in arguments)})"
        )
        return _pointwise(dtype, display, function, arguments)

    def references(self) -> set[tuple[str | None, str]]:
        refs: set[tuple[str | None, str]] = set()
        for argument in self.arguments:
            refs |= argument.references()
        return refs

    def __hash__(self) -> int:
        return hash(("fn", self.name, tuple(self.arguments)))
