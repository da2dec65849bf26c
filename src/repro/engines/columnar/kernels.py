"""Vectorized operator kernels over :class:`ColumnBatch` inputs.

Every kernel is a drop-in replacement for the corresponding native
handler in :mod:`repro.algebra.executor` and must preserve its observable
behaviour *exactly*: same output rows in the same order, lineage formulas
built with the same connective structure in the same operand order (the
smart constructors in :mod:`repro.lineage.formula` flatten and dedupe in
first-seen order, so identical construction order ⇒ structurally equal
formulas ⇒ identical circuits, confidences, and solver decisions), and
the same errors for failing predicates.  The differential suite
(`tests/property/test_engine_equivalence.py`) holds both engines to this
contract.

What the kernels buy over the native handlers:

* predicates/projections run through the batch expression path — one
  kernel call per column instead of one closure chain per row;
* scans share the table's cached column view instead of materializing an
  ``AnnotatedTuple`` per stored row;
* value tuples and ``Var`` objects are built late, in proportion to what a
  kernel returns: scan/filter/project/sort/limit build none (the factor
  columns ride along); an inner equi-join hashes the shorter input's key
  column, whichever side that is, and gathers value *columns* and — when
  both inputs are deferred — factor columns over its (left, right) index
  pairs, building none either.  DISTINCT, GROUP BY and ``IN`` build no
  OR: they emit one :class:`~.batch.Group` per key or probed value, over
  the rows of their input (``lineage_or`` of those rows' formulas when
  someone reads it).  Intersect / except and a cross product materialize
  every input row; LEFT and non-equi joins build a value tuple and a
  formula per left row with a candidate and, once each, per right row
  that is one.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Callable, Iterable, Sequence

from ...algebra.executor import (
    _equi_join_columns,
    aggregate_rows,
    filter_rows,
    fold_aggregate,
    null_ordered,
    project_rows,
    sort_rows,
)
from ...algebra.plan import (
    Aggregate,
    Alias,
    Filter,
    Join,
    Limit,
    Project,
    Scan,
    SemiJoin,
    SetOperation,
    Sort,
)
from ...errors import ExecutionError
from ...lineage.formula import (
    BOTTOM,
    TOP,
    Lineage,
    lineage_and,
    lineage_not,
    lineage_or,
)
from ...storage.types import REAL, DataType
from .batch import ColumnBatch, Group

__all__ = [
    "scan_batch",
    "alias_batch",
    "filter_batch",
    "project_batch",
    "join_batch",
    "semi_join_batch",
    "set_operation_batch",
    "aggregate_batch",
    "sort_batch",
    "limit_batch",
]

_BATCH_ERRORS = (ExecutionError, TypeError, ValueError, ArithmeticError)


def _rerun_by_row(
    node: "Filter | Project | Aggregate | Sort",
    child: ColumnBatch,
    row_operator: Callable[..., list],
) -> ColumnBatch:
    """Redo a failed batch evaluation through the native row operator, so
    the error raised is the native one (same diagnostic, first failing
    row in native evaluation order)."""
    rows = row_operator(node, child.to_result_set().rows)
    return ColumnBatch.from_rows(
        node.schema,
        [row.values for row in rows],
        [row.lineage for row in rows],
    )


# -- leaf / unary -----------------------------------------------------------


def scan_batch(node: Scan) -> ColumnBatch:
    """Wrap the table's cached column view; lineage stays deferred."""
    columns, tids = node.table.column_data()
    return ColumnBatch(node.schema, columns, factors=(tids,))


def alias_batch(node: Alias, child: ColumnBatch) -> ColumnBatch:
    return child.with_columns(node.schema, child.columns)


def filter_batch(node: Filter, child: ColumnBatch) -> ColumnBatch:
    predicate = node.bound_predicate
    try:
        flags = predicate.evaluate_batch(child.columns, child.length)
    except _BATCH_ERRORS:
        return _rerun_by_row(node, child, filter_rows)
    keep = [i for i, flag in enumerate(flags) if flag is True]
    if len(keep) == child.length:
        return child
    return child.gather(keep)


def project_batch(node: Project, child: ColumnBatch) -> ColumnBatch:
    try:
        columns = [
            item.evaluate_batch(child.columns, child.length)
            for item in node.bound_items
        ]
    except _BATCH_ERRORS:
        return _rerun_by_row(node, child, project_rows)
    projected = child.with_columns(node.schema, columns)
    if not node.distinct:
        return projected
    return _merge_duplicates_batch(node.schema, projected)


def _merge_duplicates_batch(schema, inner: ColumnBatch) -> ColumnBatch:
    """Native ``_merge_duplicates``: first-seen order, one group of
    duplicates per distinct row."""
    groups: dict[tuple[Any, ...], list[int]] = {}
    for i, row_values in enumerate(inner.rows()):
        groups.setdefault(row_values, []).append(i)
    return ColumnBatch.from_rows(
        schema,
        list(groups),
        factors=([Group(inner, members) for members in groups.values()],),
    )


def limit_batch(node: Limit, child: ColumnBatch) -> ColumnBatch:
    # Limit passes the child schema through, so the slice is the result.
    return child.slice(node.offset, node.offset + node.count)


# -- join -------------------------------------------------------------------


def join_batch(
    node: Join, left: ColumnBatch, right: ColumnBatch
) -> ColumnBatch:
    values: list[tuple[Any, ...]] = []
    lineage: list[Lineage] = []
    if node.kind == "cross":
        left_rows = left.rows()
        right_rows = right.rows()
        left_lin = left.lineage_column()
        right_lin = right.lineage_column()
        for i, left_values in enumerate(left_rows):
            for j, right_values in enumerate(right_rows):
                values.append(left_values + right_values)
                lineage.append(lineage_and(left_lin[i], right_lin[j]))
        return ColumnBatch.from_rows(node.schema, values, lineage)

    condition = node.bound_condition
    assert condition is not None
    equi = _equi_join_columns(node)
    if equi is not None:
        # Only the key columns are read whole: hash the shorter input's,
        # stream the other's past it.  Either way ``buckets`` ends up as the
        # native right-side buckets (NULL keys in none of them), less the
        # keys no left row has.
        left_keys = left.columns[equi[0]]
        buckets: dict[Any, list[int]] = {}
        if left.length < right.length:
            buckets = {key: [] for key in left_keys if key is not None}
            for j, key in enumerate(right.columns[equi[1]]):
                if key in buckets:
                    buckets[key].append(j)
        else:
            for j, key in enumerate(right.columns[equi[1]]):
                if key is not None:
                    buckets.setdefault(key, []).append(j)
        if node.kind != "left":
            joined = _join_index_pairs(node, left, right, left_keys, buckets)
            if joined is not None:
                return joined
            # The re-check raised: the row path below raises natively.  A
            # left row without candidates emits nothing.
            left = left.gather(
                [i for i, key in enumerate(left_keys) if buckets.get(key)]
            )

    # Left rows that can emit are built in bulk; a right row's value tuple
    # and lineage are built the first time a candidate needs them.
    left_rows = left.rows()
    candidates: Iterable[Sequence[int]] = (
        map(_make_condition_prober(condition, right), left_rows)
        if equi is None
        else [buckets.get(key, ()) for key in left.columns[equi[0]]]
    )
    right_row = cache(right.row)
    right_lineage = cache(right.lineage_at)
    null_padding = (None,) * len(right.schema)
    for left_values, left_lineage, row_candidates in zip(
        left_rows, left.lineage_column(), candidates
    ):
        _emit_matches(
            node,
            left_values,
            left_lineage,
            row_candidates,
            right_row,
            right_lineage,
            condition,
            values,
            lineage,
            null_padding,
            prefiltered=equi is None,
        )
    return ColumnBatch.from_rows(node.schema, values, lineage)


def _join_index_pairs(
    node: Join,
    left: ColumnBatch,
    right: ColumnBatch,
    left_keys: list,
    buckets: dict[Any, list[int]],
) -> ColumnBatch | None:
    """The inner equi-join as a gather over (left, right) index pairs, in
    native order: left rows in order, each one's bucket in right order.

    The join condition is re-checked over the gathered columns, as the row
    path re-checks every hash-equal candidate (``None`` when that raises).
    Two deferred inputs give a deferred output — the left's factor
    columns, then the right's — so no ``Var``, ``And`` or value tuple is
    built.
    """
    left_index: list[int] = []
    right_index: list[int] = []
    for i, key in enumerate(left_keys):
        matches = buckets.get(key)
        if matches:
            left_index.extend([i] * len(matches))
            right_index.extend(matches)
    columns = [[column[i] for i in left_index] for column in left.columns]
    columns += [[column[j] for j in right_index] for column in right.columns]
    try:
        flags = node.bound_condition.evaluate_batch(columns, len(left_index))
    except _BATCH_ERRORS:
        return None
    keep = [p for p, flag in enumerate(flags) if flag is True]
    if len(keep) != len(flags):
        columns = [[column[p] for p in keep] for column in columns]
        left_index = [left_index[p] for p in keep]
        right_index = [right_index[p] for p in keep]
    if left.factors is not None and right.factors is not None:
        return ColumnBatch(
            node.schema,
            columns,
            factors=(
                *([factor[i] for i in left_index] for factor in left.factors),
                *([factor[j] for j in right_index] for factor in right.factors),
            ),
        )
    return ColumnBatch(
        node.schema,
        columns,
        lineage=list(
            map(lineage_and, left.lineages(left_index), right.lineages(right_index))
        ),
    )


def _make_condition_prober(
    condition, right: ColumnBatch
) -> Callable[[tuple[Any, ...]], list[int]]:
    """Matching right-row indexes for one left row, via one batch eval.

    The left row is broadcast as constant columns next to the right
    batch's columns; falls back to scalar evaluation when the batch path
    raises, so error behaviour matches the native nested loop exactly.
    """
    right_columns = right.columns
    right_rows_cache: list[tuple[Any, ...]] | None = None
    count = right.length

    def probe(left_values: tuple[Any, ...]) -> list[int]:
        nonlocal right_rows_cache
        combined = [[value] * count for value in left_values]
        combined.extend(right_columns)
        try:
            flags = condition.evaluate_batch(combined, count)
        except _BATCH_ERRORS:
            if right_rows_cache is None:
                right_rows_cache = right.rows()
            return [
                j
                for j, right_values in enumerate(right_rows_cache)
                if condition.evaluate(left_values + right_values) is True
            ]
        return [j for j, flag in enumerate(flags) if flag is True]

    return probe


def _emit_matches(
    node: Join,
    left_values: tuple[Any, ...],
    left_lineage: Lineage,
    candidates: Sequence[int],
    right_row: Callable[[int], tuple[Any, ...]],
    right_lineage: Callable[[int], Lineage],
    condition,
    values: list[tuple[Any, ...]],
    lineage: list[Lineage],
    null_padding: tuple[None, ...],
    prefiltered: bool,
) -> None:
    """Native ``_emit_matches`` over right-row indexes: a candidate's value
    tuple is built for the re-check, its lineage only once it passes."""
    matched: list[Lineage] = []
    for j in candidates:
        combined = left_values + right_row(j)
        if not prefiltered and condition.evaluate(combined) is not True:
            continue
        partner = right_lineage(j)
        matched.append(partner)
        values.append(combined)
        lineage.append(lineage_and(left_lineage, partner))
    if node.kind == "left":
        if not matched:
            values.append(left_values + null_padding)
            lineage.append(left_lineage)
        else:
            absent = lineage_and(
                left_lineage, lineage_not(lineage_or(*matched))
            )
            if absent != BOTTOM:
                values.append(left_values + null_padding)
                lineage.append(absent)


# -- semi-join --------------------------------------------------------------


def semi_join_batch(
    node: SemiJoin, left: ColumnBatch, right: ColumnBatch
) -> ColumnBatch:
    probe = node.bound_probe
    try:
        probe_values = probe.evaluate_batch(left.columns, left.length)
    except _BATCH_ERRORS:
        # Scalar fallback surfaces the native error for the first row.
        probe_values = [probe.evaluate(values) for values in left.rows()]

    # Subquery row indexes per probed value, in subquery order: the
    # value's group, shared by every left row that probes it.
    members: dict[Any, list[int]] = {
        value: [] for value in probe_values if value is not None
    }
    for j, value in enumerate(right.columns[0]):
        if value in members:
            members[value].append(j)
    negated = node.negated
    # NOT IN: a probe without a match is the empty group, ``¬⊥ = ⊤``.
    unmatched = Group(right, (), negated=True) if negated else None
    groups = {
        value: Group(right, rows, negated) if rows else unmatched
        for value, rows in members.items()
    }
    keep: list[int] = []
    probed: list[Group] = []
    if not (negated and None in right.columns[0]):  # then NOT IN is never true
        for i, value in enumerate(probe_values):
            # A NULL probe: IN and NOT IN are both unknown.
            group = None if value is None else groups[value]
            if group is not None:
                keep.append(i)
                probed.append(group)
    if left.factors is not None and right.factors is not None:
        kept = left.gather(keep)
        return ColumnBatch(
            node.schema, kept.columns, factors=(*kept.factors, probed)
        )
    # A materialised input: the formulas now, less ``x ∧ ¬⊤`` (a NOT IN
    # whose match is certain).
    lineage = list(map(lineage_and, left.lineages(keep), map(Group.lineage, probed)))
    keep = [i for i, formula in zip(keep, lineage) if formula != BOTTOM]
    columns = [[column[i] for i in keep] for column in left.columns]
    return ColumnBatch(
        node.schema,
        columns,
        lineage=[formula for formula in lineage if formula != BOTTOM],
    )


# -- set operations ---------------------------------------------------------


def _widen_columns(
    batch: ColumnBatch, types: tuple[DataType, ...]
) -> Sequence[list]:
    """Column-wise version of the native ``_widen`` (ints → float in REAL
    columns; bools are untouched)."""
    columns = []
    for column, dtype in zip(batch.columns, types):
        if dtype is REAL:
            columns.append(
                [
                    float(value)
                    if isinstance(value, int) and not isinstance(value, bool)
                    else value
                    for value in column
                ]
            )
        else:
            columns.append(column)
    return columns


def set_operation_batch(
    node: SetOperation, left: ColumnBatch, right: ColumnBatch
) -> ColumnBatch:
    types = node.schema.types
    left_wide = left.with_columns(node.schema, _widen_columns(left, types))
    right_wide = right.with_columns(node.schema, _widen_columns(right, types))

    if node.kind in ("union_all", "union"):
        columns = [
            left_column + right_column
            for left_column, right_column in zip(
                left_wide.columns, right_wide.columns
            )
        ]
        lineage = left_wide.lineage_column() + right_wide.lineage_column()
        combined = ColumnBatch(node.schema, columns, lineage=lineage)
        if node.kind == "union_all":
            return combined
        return _merge_duplicates_batch(node.schema, combined)

    left_values = left_wide.rows()
    right_values = right_wide.rows()

    left_groups: dict[tuple[Any, ...], list[Lineage]] = {}
    for row_values, row_lineage in zip(
        left_values, left_wide.lineage_column()
    ):
        left_groups.setdefault(row_values, []).append(row_lineage)
    right_groups: dict[tuple[Any, ...], list[Lineage]] = {}
    for row_values, row_lineage in zip(
        right_values, right_wide.lineage_column()
    ):
        right_groups.setdefault(row_values, []).append(row_lineage)

    values: list[tuple[Any, ...]] = []
    lineage: list[Lineage] = []
    if node.kind == "intersect":
        for group_values, lineages in left_groups.items():
            if group_values in right_groups:
                values.append(group_values)
                lineage.append(
                    lineage_and(
                        lineage_or(*lineages),
                        lineage_or(*right_groups[group_values]),
                    )
                )
        return ColumnBatch.from_rows(node.schema, values, lineage)
    # except
    for group_values, lineages in left_groups.items():
        present = lineage_or(*lineages)
        if group_values in right_groups:
            formula = lineage_and(
                present, lineage_not(lineage_or(*right_groups[group_values]))
            )
        else:
            formula = present
        if formula != BOTTOM:
            values.append(group_values)
            lineage.append(formula)
    return ColumnBatch.from_rows(node.schema, values, lineage)


# -- aggregate / sort -------------------------------------------------------


def aggregate_batch(node: Aggregate, child: ColumnBatch) -> ColumnBatch:
    count = child.length
    try:
        key_columns = [
            bound.evaluate_batch(child.columns, count)
            for bound in node.bound_keys
        ]
        argument_columns = [
            None if bound is None else bound.evaluate_batch(child.columns, count)
            for bound in node.bound_arguments
        ]
    except _BATCH_ERRORS:
        return _rerun_by_row(node, child, aggregate_rows)

    # Member row indexes per group, groups in first-seen order.
    groups: dict[tuple[Any, ...], list[int]] = {}
    if key_columns:
        for i, key in enumerate(zip(*key_columns)):
            groups.setdefault(key, []).append(i)
    else:
        # Global aggregate: one row, certain when the input is empty.
        groups[()] = list(range(count))

    values = [
        key
        + tuple(
            len(members)
            if column is None  # COUNT(*)
            else fold_aggregate(spec, bound.dtype, [column[i] for i in members])
            for spec, bound, column in zip(
                node.aggregates, node.bound_arguments, argument_columns
            )
        )
        for key, members in groups.items()
    ]
    if not count and not key_columns:
        return ColumnBatch.from_rows(node.schema, values, lineage=[TOP])
    return ColumnBatch.from_rows(
        node.schema,
        values,
        factors=([Group(child, members) for members in groups.values()],),
    )


def sort_batch(node: Sort, child: ColumnBatch) -> ColumnBatch:
    try:
        key_columns = [
            bound.evaluate_batch(child.columns, child.length)
            for bound in node.bound_keys
        ]
    except _BATCH_ERRORS:
        return _rerun_by_row(node, child, sort_rows)
    order = list(range(child.length))
    # Stable multi-key sort of row indexes: apply keys last-to-first.
    for key, column in zip(reversed(node.keys), reversed(key_columns)):
        ranks = [null_ordered(value) for value in column]
        order.sort(key=ranks.__getitem__, reverse=key.descending)
    return child.gather(order)
