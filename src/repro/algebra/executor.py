"""Plan execution with lineage propagation.

:func:`execute` evaluates a logical plan bottom-up, producing a
:class:`~repro.algebra.rows.ResultSet` of lineage-annotated rows.  Lineage
rules (Trio-style, paper element 2):

====================  ====================================================
Operator              Lineage of each output row
====================  ====================================================
Scan                  ``Var(tid)`` of the stored tuple
Filter                unchanged
Project               unchanged; DISTINCT merges duplicates with OR
Join (inner/cross)    ``left AND right``
Join (left outer)     matches as inner; unmatched left rows get
                      ``left AND NOT (OR of joinable right rows)``
UNION                 OR of all duplicates across both sides
UNION ALL             unchanged (rows kept separately)
INTERSECT             ``(OR of left dups) AND (OR of right dups)``
EXCEPT                ``(OR of left dups) AND NOT (OR of right dups)``
Aggregate             OR of the group's member rows
====================  ====================================================

EXCEPT keeps probabilistic semantics: a left value that also occurs on the
right is *retained* with a negated lineage (its confidence is the
probability the right derivation is wrong).  With fully-trusted right-hand
tuples that confidence is 0, and policy evaluation filters the row — i.e.
the deterministic behaviour falls out as the certain special case.

The executor is eager (materialises each operator's output); the paper's
workloads are small and strategy finding, not scan throughput, dominates.
Each operator over inputs is a row operator (``filter_rows`` …
``join_rows``, ``semi_join_rows``, ``set_operation_rows``) that the
``_execute_*`` handler feeds its children's rows; the columnar engine
runs the same functions wherever it has no columnar form of its own.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable

from ..errors import ExecutionError, PlanError, SchemaError
from ..lineage.formula import (
    BOTTOM,
    TOP,
    Lineage,
    lineage_and,
    lineage_not,
    lineage_or,
    var,
)
from ..obs import TIMING_BUCKETS, get_metrics, get_tracer
from ..storage.types import REAL, DataType
from .expressions import ColumnRef, Comparison
from .plan import (
    Aggregate,
    AggregateSpec,
    Alias,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    SemiJoin,
    SetOperation,
    Sort,
)
from .rows import AnnotatedTuple, ResultSet

__all__ = ["execute"]

logger = logging.getLogger(__name__)


def execute(plan: PlanNode) -> ResultSet:
    """Run *plan* and return its annotated result set.

    Each operator is instrumented: an ``algebra.<operator>`` span (when
    tracing is enabled) nests naturally under its parent because handlers
    recurse through this function, and per-operator call/row/time metrics
    are always recorded — one update per operator, not per row.
    """
    operator = type(plan).__name__
    handler = _HANDLERS.get(type(plan))
    if handler is None:
        raise PlanError(f"no executor for plan node {operator}")

    tracer = get_tracer()
    started = time.perf_counter()
    if tracer.enabled:
        with tracer.span(f"algebra.{operator.lower()}") as span:
            result = handler(plan)
            span.set_attribute("rows_emitted", len(result.rows))
    else:
        result = handler(plan)
    elapsed = time.perf_counter() - started

    metrics = get_metrics()
    prefix = f"executor.{operator.lower()}"
    metrics.counter(f"{prefix}.calls").inc()
    metrics.counter(f"{prefix}.rows_emitted").inc(len(result.rows))
    metrics.histogram(f"{prefix}.seconds", TIMING_BUCKETS).observe(elapsed)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "%s emitted %d row(s) in %.6fs", operator, len(result.rows), elapsed
        )
    return result


# ---------------------------------------------------------------------------
# Per-operator implementations
# ---------------------------------------------------------------------------


def _execute_scan(node: Scan) -> ResultSet:
    rows = [
        AnnotatedTuple(stored.values, var(stored.tid))
        for stored in node.table.scan()
    ]
    return ResultSet(node.schema, rows)


def _execute_alias(node: Alias) -> ResultSet:
    child = execute(node.child)
    return ResultSet(node.schema, child.rows)


def filter_rows(
    node: Filter, child_rows: list[AnnotatedTuple]
) -> list[AnnotatedTuple]:
    predicate = node.bound_predicate
    rows = []
    for row in child_rows:
        try:
            keep = predicate.evaluate(row.values)
        except ExecutionError:
            raise
        except (TypeError, ValueError, ArithmeticError) as error:
            # A predicate blowing up on a row must surface, not silently
            # drop the row (which would corrupt the released fraction).
            raise ExecutionError(
                f"predicate failed on row {row.values!r}: {error}"
            ) from error
        if keep is True:
            rows.append(row)
    return rows


def _execute_filter(node: Filter) -> ResultSet:
    return ResultSet(node.schema, filter_rows(node, execute(node.child).rows))


def project_rows(
    node: Project, child_rows: list[AnnotatedTuple]
) -> list[AnnotatedTuple]:
    bound = node.bound_items
    projected = [
        AnnotatedTuple(
            tuple(item.evaluate(row.values) for item in bound),
            row.lineage,
        )
        for row in child_rows
    ]
    return _merge_duplicates(projected) if node.distinct else projected


def _execute_project(node: Project) -> ResultSet:
    return ResultSet(node.schema, project_rows(node, execute(node.child).rows))


def _merge_duplicates(rows: list[AnnotatedTuple]) -> list[AnnotatedTuple]:
    """Collapse equal-valued rows, OR-ing their lineages (first-seen order)."""
    groups: dict[tuple[Any, ...], list[Lineage]] = {}
    for row in rows:
        groups.setdefault(row.values, []).append(row.lineage)
    return [
        AnnotatedTuple(values, lineage_or(*lineages))
        for values, lineages in groups.items()
    ]


def _equi_join_columns(node: Join) -> tuple[int, int] | None:
    """Column indexes (left, right) if the condition is a simple equi-join."""
    condition = node.condition
    if not isinstance(condition, Comparison) or condition.op != "=":
        return None
    if not isinstance(condition.left, ColumnRef) or not isinstance(
        condition.right, ColumnRef
    ):
        return None

    def side_index(ref: ColumnRef, schema) -> int | None:
        try:
            return schema.index_of(ref.name, ref.table)
        except SchemaError:
            # Unknown/ambiguous on this side: not an equi-join column here.
            return None

    left_on_left = side_index(condition.left, node.left.schema)
    right_on_right = side_index(condition.right, node.right.schema)
    if left_on_left is not None and right_on_right is not None:
        return left_on_left, right_on_right
    left_on_right = side_index(condition.left, node.right.schema)
    right_on_left = side_index(condition.right, node.left.schema)
    if left_on_right is not None and right_on_left is not None:
        return right_on_left, left_on_right
    return None


def join_rows(
    node: Join,
    left_rows: list[AnnotatedTuple],
    right_rows: list[AnnotatedTuple],
) -> list[AnnotatedTuple]:
    if node.kind == "cross":
        return [
            AnnotatedTuple(
                left_row.values + right_row.values,
                lineage_and(left_row.lineage, right_row.lineage),
            )
            for left_row in left_rows
            for right_row in right_rows
        ]

    condition = node.bound_condition
    assert condition is not None
    equi = _equi_join_columns(node)
    rows: list[AnnotatedTuple] = []
    null_padding = (None,) * len(node.right.schema)

    if equi is not None:
        left_index, right_index = equi
        buckets: dict[Any, list[AnnotatedTuple]] = {}
        for right_row in right_rows:
            key = right_row.values[right_index]
            if key is not None:
                buckets.setdefault(key, []).append(right_row)
        for left_row in left_rows:
            key = left_row.values[left_index]
            matches = buckets.get(key, ()) if key is not None else ()
            _emit_matches(node, left_row, matches, condition, rows, null_padding)
    else:
        for left_row in left_rows:
            matches = [
                right_row
                for right_row in right_rows
                if condition.evaluate(left_row.values + right_row.values) is True
            ]
            _emit_matches(node, left_row, matches, condition, rows, null_padding, prefiltered=True)
    return rows


def _execute_join(node: Join) -> ResultSet:
    return ResultSet(
        node.schema, join_rows(node, execute(node.left).rows, execute(node.right).rows)
    )


def _emit_matches(
    node: Join,
    left_row: AnnotatedTuple,
    candidates,
    condition,
    rows: list[AnnotatedTuple],
    null_padding: tuple[None, ...],
    prefiltered: bool = False,
) -> None:
    matched_lineages: list[Lineage] = []
    for right_row in candidates:
        combined = left_row.values + right_row.values
        if not prefiltered and condition.evaluate(combined) is not True:
            continue
        matched_lineages.append(right_row.lineage)
        rows.append(
            AnnotatedTuple(
                combined,
                lineage_and(left_row.lineage, right_row.lineage),
            )
        )
    if node.kind == "left":
        if not matched_lineages:
            rows.append(
                AnnotatedTuple(left_row.values + null_padding, left_row.lineage)
            )
        else:
            # The "no partner exists" row remains possible whenever every
            # joinable right tuple might be wrong; emit it with the negated
            # lineage unless it is outright impossible.
            absent = lineage_and(
                left_row.lineage,
                lineage_not(lineage_or(*matched_lineages)),
            )
            if absent != BOTTOM:
                rows.append(
                    AnnotatedTuple(left_row.values + null_padding, absent)
                )


def semi_join_rows(
    node: SemiJoin,
    left_rows: list[AnnotatedTuple],
    right_rows: list[AnnotatedTuple],
) -> list[AnnotatedTuple]:
    probe = node.bound_probe

    # Merge equal subquery values, OR-ing their lineages; remember NULLs.
    matches: dict[Any, Lineage] = {}
    subquery_has_null = False
    for row in right_rows:
        value = row.values[0]
        if value is None:
            subquery_has_null = True
            continue
        existing = matches.get(value)
        matches[value] = (
            row.lineage if existing is None else lineage_or(existing, row.lineage)
        )

    rows: list[AnnotatedTuple] = []
    for row in left_rows:
        value = probe.evaluate(row.values)
        if value is None:
            continue  # NULL probe: IN and NOT IN are both unknown
        match = matches.get(value)
        if not node.negated:
            if match is None:
                continue
            rows.append(
                AnnotatedTuple(row.values, lineage_and(row.lineage, match))
            )
        else:
            if subquery_has_null:
                continue  # NOT IN with NULLs present is never true
            if match is None:
                rows.append(row)
                continue
            lineage = lineage_and(row.lineage, lineage_not(match))
            if lineage != BOTTOM:
                rows.append(AnnotatedTuple(row.values, lineage))
    return rows


def _execute_semi_join(node: SemiJoin) -> ResultSet:
    return ResultSet(
        node.schema,
        semi_join_rows(node, execute(node.left).rows, execute(node.right).rows),
    )


def _widen(values: tuple[Any, ...], types: tuple[DataType, ...]) -> tuple[Any, ...]:
    return tuple(
        float(value)
        if dtype is REAL and isinstance(value, int) and not isinstance(value, bool)
        else value
        for value, dtype in zip(values, types)
    )


def set_operation_rows(
    node: SetOperation,
    left_rows: list[AnnotatedTuple],
    right_rows: list[AnnotatedTuple],
) -> list[AnnotatedTuple]:
    types = node.schema.types
    left_rows = [
        AnnotatedTuple(_widen(row.values, types), row.lineage) for row in left_rows
    ]
    right_rows = [
        AnnotatedTuple(_widen(row.values, types), row.lineage) for row in right_rows
    ]
    if node.kind == "union_all":
        return left_rows + right_rows
    if node.kind == "union":
        return _merge_duplicates(left_rows + right_rows)

    left_groups: dict[tuple[Any, ...], list[Lineage]] = {}
    for row in left_rows:
        left_groups.setdefault(row.values, []).append(row.lineage)
    right_groups: dict[tuple[Any, ...], list[Lineage]] = {}
    for row in right_rows:
        right_groups.setdefault(row.values, []).append(row.lineage)

    rows: list[AnnotatedTuple] = []
    if node.kind == "intersect":
        for values, lineages in left_groups.items():
            if values in right_groups:
                rows.append(
                    AnnotatedTuple(
                        values,
                        lineage_and(
                            lineage_or(*lineages),
                            lineage_or(*right_groups[values]),
                        ),
                    )
                )
        return rows
    # except
    for values, lineages in left_groups.items():
        present = lineage_or(*lineages)
        if values in right_groups:
            lineage = lineage_and(
                present, lineage_not(lineage_or(*right_groups[values]))
            )
        else:
            lineage = present
        if lineage != BOTTOM:
            rows.append(AnnotatedTuple(values, lineage))
    return rows


def _execute_set_operation(node: SetOperation) -> ResultSet:
    return ResultSet(
        node.schema,
        set_operation_rows(node, execute(node.left).rows, execute(node.right).rows),
    )


def fold_aggregate(spec: AggregateSpec, dtype: DataType, values: list) -> Any:
    """One aggregate output from a group's argument *values* (NULLs
    included; unused for ``COUNT(*)``)."""
    values = [value for value in values if value is not None]
    if spec.distinct:
        values = list(dict.fromkeys(values))
    if spec.function == "COUNT":
        return len(values)
    if not values:
        return None  # SQL: aggregates over empty/all-NULL input are NULL
    if spec.function == "SUM":
        total = sum(values)
        return float(total) if dtype is REAL else total
    if spec.function == "AVG":
        return float(sum(values)) / len(values)
    if spec.function == "MIN":
        return min(values)
    if spec.function == "MAX":
        return max(values)
    raise ExecutionError(f"unhandled aggregate {spec.function}")  # pragma: no cover


def aggregate_rows(
    node: Aggregate, child_rows: list[AnnotatedTuple]
) -> list[AnnotatedTuple]:
    groups: dict[tuple[Any, ...], list[AnnotatedTuple]] = {}
    for row in child_rows:
        key = tuple(bound.evaluate(row.values) for bound in node.bound_keys)
        groups.setdefault(key, []).append(row)
    if not groups and not node.group_by:
        # Global aggregate over an empty input: one certain row.
        groups[()] = []

    rows: list[AnnotatedTuple] = []
    for key, members in groups.items():
        aggregate_values = tuple(
            len(members)
            if bound_argument is None  # COUNT(*)
            else fold_aggregate(
                spec,
                bound_argument.dtype,
                [bound_argument.evaluate(row.values) for row in members],
            )
            for spec, bound_argument in zip(node.aggregates, node.bound_arguments)
        )
        lineage = (
            lineage_or(*(member.lineage for member in members)) if members else TOP
        )
        rows.append(AnnotatedTuple(key + aggregate_values, lineage))
    return rows


def _execute_aggregate(node: Aggregate) -> ResultSet:
    return ResultSet(node.schema, aggregate_rows(node, execute(node.child).rows))


def null_ordered(value: Any) -> tuple[int, Any]:
    """Sort key putting NULLs first ascending / last descending: the flag
    sorts before any real value and ``reverse=`` flips it consistently."""
    return (0, 0) if value is None else (1, value)


def sort_rows(node: Sort, child_rows: list[AnnotatedTuple]) -> list[AnnotatedTuple]:
    rows = list(child_rows)
    # Stable multi-key sort: apply keys last-to-first.
    for key, bound in zip(reversed(node.keys), reversed(node.bound_keys)):
        rows.sort(
            key=lambda row, bound=bound: null_ordered(bound.evaluate(row.values)),
            reverse=key.descending,
        )
    return rows


def _execute_sort(node: Sort) -> ResultSet:
    return ResultSet(node.schema, sort_rows(node, execute(node.child).rows))


def _execute_limit(node: Limit) -> ResultSet:
    child = execute(node.child)
    window = child.rows[node.offset : node.offset + node.count]
    return ResultSet(node.schema, list(window))


_HANDLERS: dict[type, Callable[[Any], ResultSet]] = {
    Scan: _execute_scan,
    Alias: _execute_alias,
    SemiJoin: _execute_semi_join,
    Filter: _execute_filter,
    Project: _execute_project,
    Join: _execute_join,
    SetOperation: _execute_set_operation,
    Aggregate: _execute_aggregate,
    Sort: _execute_sort,
    Limit: _execute_limit,
}
