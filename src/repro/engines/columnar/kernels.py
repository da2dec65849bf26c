"""Vectorized operator kernels over :class:`ColumnBatch` inputs.

The columnar engine keeps a kernel only where an operator has a columnar
or deferred form; everything else *is* the reference's own row operator
from :mod:`repro.algebra.executor`, run over materialised inputs by
:func:`_by_row`: a cross product, a theta join (any ``ON`` that is not
one ``a = b``), UNION / UNION ALL / INTERSECT / EXCEPT, and an ``IN`` /
``NOT IN`` with a materialised input.  A kernel whose batch evaluation
raised redoes the operator the same way, so the error is the native one.

A kernel must preserve the native operator's observable behaviour
*exactly*: same output rows in the same order, lineage formulas built
with the same connective structure in the same operand order (the smart
constructors in :mod:`repro.lineage.formula` flatten and dedupe in
first-seen order, so identical construction order ⇒ structurally equal
formulas ⇒ identical circuits, confidences, and solver decisions).  The
differential suite (`tests/property/test_engine_equivalence.py`) holds
both engines to this contract.

What the kernels buy over the native operators:

* a batch is read through its selection (:class:`Selection`): a
  filter, sort, limit or semi-join passes its input's row positions and
  an inner equi-join its (left, right) index pairs, so a column — value
  or factor — is gathered only when something reads it, once, at the
  rows that reach the reader.  A filter's conjuncts each read their own
  columns at the rows the earlier ones left not False (a column compared
  with a literal calls nothing per row, and asks the table's view once a
  version whether it holds a NULL); a join's re-check reads the key
  columns at its pairs; a projection reads the columns it names;
* a shorter left probes a scanned right's :meth:`ColumnView.key_map`;
* value tuples and ``Var`` objects are built late, in proportion to what a
  kernel returns: scan/filter/project/sort/limit and an inner equi-join of
  deferred inputs build none.  DISTINCT, GROUP BY and ``IN`` over
  deferred inputs build no OR: they emit one :class:`~.batch.Group` per
  key or probed value.  A LEFT equi-join builds a value tuple and a
  formula per left row and, once each, per right row that is a candidate.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from typing import Any, Callable, Sequence

from ...algebra.executor import (
    _equi_join_columns,
    aggregate_rows,
    filter_rows,
    fold_aggregate,
    join_rows,
    null_ordered,
    project_rows,
    semi_join_rows,
    set_operation_rows,
    sort_rows,
)
from ...algebra.plan import (
    Aggregate,
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
from ...errors import ExecutionError
from ...lineage.formula import (
    BOTTOM,
    TOP,
    Lineage,
    lineage_and,
    lineage_not,
    lineage_or,
)
from ...storage.tuples import ColumnView, Selection, selection_parts
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


def _by_row(
    node: PlanNode, row_operator: Callable[..., list], *children: ColumnBatch
) -> ColumnBatch:
    """Run *node* through the native row operator over its materialised
    inputs: for an operator with no columnar form, and to redo a batch
    evaluation that raised, so the error is the native one (same
    diagnostic, first failing row in native evaluation order)."""
    rows = row_operator(node, *(child.to_result_set().rows for child in children))
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
    try:
        keep, _ = node.bound_predicate.select(child.columns, range(child.length))
    except _BATCH_ERRORS:
        return _by_row(node, filter_rows, child)
    return child if len(keep) == child.length else child.gather(keep)


def project_batch(node: Project, child: ColumnBatch) -> ColumnBatch:
    try:
        columns = [
            item.evaluate_batch(child.columns, child.length)
            for item in node.bound_items
        ]
    except _BATCH_ERRORS:
        return _by_row(node, project_rows, child)
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
    equi = None if node.kind == "cross" else _equi_join_columns(node)
    if equi is None:
        return _by_row(node, join_rows, left, right)
    # Only the key columns are read whole.  A shorter left probes a
    # scanned right's key map, or is hashed and the right's keys streamed
    # past it; otherwise the right's keys are hashed.  Each way
    # ``buckets`` ends up as the native right-side buckets (NULL keys in
    # none of them), less at most the keys no left row has.
    left_keys = left.columns[equi[0]]
    buckets: dict[Any, list[int]] | None = {}
    if left.length < right.length:
        buckets = _probed(node.right, right, equi[1], left_keys)
        if buckets is None:
            buckets = {key: [] for key in left_keys if key is not None}
            for j, key in enumerate(right.columns[equi[1]]):
                if key in buckets:
                    buckets[key].append(j)
    else:
        for j, key in enumerate(right.columns[equi[1]]):
            if key is not None:
                buckets.setdefault(key, []).append(j)
    if node.kind == "left":
        return _left_join(node, left, right, left_keys, buckets)
    joined = _join_index_pairs(node, left, right, left_keys, buckets)
    if joined is None:  # the re-check raised: raise it natively
        return _by_row(node, join_rows, left, right)
    return joined


def _probed(
    node: PlanNode, batch: ColumnBatch, column: int, left_keys: list
) -> dict[Any, list[int]] | None:
    """*left_keys*' buckets in *batch* from its table view's key map, when
    *batch* is a base table's rows in ascending order — *node* a scan, or
    filters over one, through aliases — else ``None`` (a sort's or limit's
    gather, a join, anything materialised).  A filter's kept indexes are
    found by ``bisect``, unless the keys' whole-table buckets outnumber
    its kept rows: then streaming those is cheaper, and ``None``."""
    while type(node) in (Alias, Filter):
        node = node.child
    if type(node) is not Scan:
        return None
    columns = batch.columns
    if type(columns) is ColumnView:
        return columns.key_map(column)
    if not (
        type(columns) is Selection
        and len(columns.parts) == 1
        and type(columns.parts[0][0]) is ColumnView
    ):
        return None  # a filter that ran by row
    view, keep = columns.parts[0]
    buckets = view.key_map(column)
    found = {key: buckets.get(key, ()) for key in set(left_keys)}
    if sum(map(len, found.values())) > len(keep):
        return None
    return {key: _kept(positions, keep) for key, positions in found.items()}


def _kept(positions: Sequence[int], keep: Sequence[int]) -> list[int]:
    """The indexes into the ascending *keep* of those *positions* it
    holds, in order."""
    found = []
    for position in positions:
        j = bisect_left(keep, position)
        if j < len(keep) and keep[j] == position:
            found.append(j)
    return found


def _join_index_pairs(
    node: Join,
    left: ColumnBatch,
    right: ColumnBatch,
    left_keys: list,
    buckets: dict[Any, list[int]],
) -> ColumnBatch | None:
    """The inner equi-join as (left, right) index pairs, in native order:
    left rows in order, each one's bucket in right order; its columns are
    its inputs' read through the pairs (:meth:`ColumnBatch.joined`), so
    two deferred inputs build no ``Var``, ``And`` or value tuple.

    The join condition is re-checked at every pair, as the row path
    re-checks every hash-equal candidate (``None`` when that raises); it
    reads the left key column the hashing gathered and the right key
    column at the pairs, and nothing else.
    """
    left_index: list[int] = []
    right_index: list[int] = []
    for i, key in enumerate(left_keys):
        matches = buckets.get(key)
        if matches:
            left_index.extend([i] * len(matches))
            right_index.extend(matches)
    pairs = Selection(
        ((left.columns, left_index),)
        + selection_parts(right.columns, right_index, {}),
        len(node.schema),
    )
    try:
        flags = node.bound_condition.evaluate_batch(pairs, len(left_index))
    except _BATCH_ERRORS:
        return None
    keep = [p for p, flag in enumerate(flags) if flag is True]
    if len(keep) != len(flags):
        left_index = [left_index[p] for p in keep]
        right_index = [right_index[p] for p in keep]
    return ColumnBatch.joined(node.schema, left, left_index, right, right_index)


def _left_join(
    node: Join,
    left: ColumnBatch,
    right: ColumnBatch,
    left_keys: list,
    buckets: dict[Any, list[int]],
) -> ColumnBatch:
    """Native ``_emit_matches`` for a LEFT equi-join, over right-row
    indexes: a right row's value tuple is built the first time a candidate
    needs it for the re-check, its lineage the first time it passes — the
    native operator would materialise the whole right input."""
    condition = node.bound_condition
    right_row = cache(right.row)
    right_lineage = cache(right.lineage_at)
    null_padding = (None,) * len(right.schema)
    values: list[tuple[Any, ...]] = []
    lineage: list[Lineage] = []
    for left_values, left_lineage, key in zip(
        left.rows(), left.lineage_column(), left_keys
    ):
        matched: list[Lineage] = []
        for j in buckets.get(key, ()):
            combined = left_values + right_row(j)
            if condition.evaluate(combined) is not True:
                continue
            partner = right_lineage(j)
            matched.append(partner)
            values.append(combined)
            lineage.append(lineage_and(left_lineage, partner))
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
    return ColumnBatch.from_rows(node.schema, values, lineage)


# -- semi-join --------------------------------------------------------------


def semi_join_batch(
    node: SemiJoin, left: ColumnBatch, right: ColumnBatch
) -> ColumnBatch:
    if left.factors is None or right.factors is None:
        return _by_row(node, semi_join_rows, left, right)
    try:
        probe_values = node.bound_probe.evaluate_batch(left.columns, left.length)
    except _BATCH_ERRORS:
        return _by_row(node, semi_join_rows, left, right)

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
    kept = left.gather(keep)
    return ColumnBatch(node.schema, kept.columns, factors=(*kept.factors, probed))


# -- set operations ---------------------------------------------------------


def set_operation_batch(
    node: SetOperation, left: ColumnBatch, right: ColumnBatch
) -> ColumnBatch:
    return _by_row(node, set_operation_rows, left, right)


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
        return _by_row(node, aggregate_rows, child)

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
        return _by_row(node, sort_rows, child)
    order = list(range(child.length))
    # Stable multi-key sort of row indexes: apply keys last-to-first.
    for key, column in zip(reversed(node.keys), reversed(key_columns)):
        ranks = [null_ordered(value) for value in column]
        order.sort(key=ranks.__getitem__, reverse=key.descending)
    return child.gather(order)
