"""Statistics-driven join reordering.

A conservative, cardinality-estimating join-order pass:

* It only touches *clusters* of inner/cross joins whose conditions are
  simple equi-joins between two relations (plus equality conjuncts
  harvested from a filter directly above the cluster — the ``FROM a, b
  WHERE a.x = b.x`` implicit-join pattern).
* Base cardinalities come from exact table statistics
  (:mod:`repro.storage.statistics`) for scans and filtered scans; any
  other leaf uses a neutral default.
* Ordering is the classic greedy heuristic: start from the smallest
  relation, repeatedly join the connected relation with the smallest
  estimated result (``|A⋈B| ≈ |A||B| / max(ndv)``), cross products last.
* The rebuilt tree is wrapped in a column projection restoring the
  original column order, so the rewrite is invisible to parents —
  including positional consumers like set operations.

Lineage is unaffected: joins are commutative and associative over AND.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ReproError, SchemaError
from ..storage.statistics import TableStatistics, collect_statistics
from .expressions import ColumnRef, Comparison, Expression, LogicalAnd
from .plan import Filter, Join, PlanNode, Project, ProjectItem, Scan, with_inputs

__all__ = ["reorder_joins", "reads_statistics"]

#: Statistics are consulted only for clusters of at least this many leaves.
_MIN_CLUSTER_LEAVES = 3
_DEFAULT_CARDINALITY = 1000.0
_FILTER_SELECTIVITY = 0.3
_EQUALITY_SELECTIVITY_FLOOR = 1e-4


@dataclass
class _Relation:
    """One leaf of a join cluster."""

    plan: PlanNode
    cardinality: float
    statistics: TableStatistics | None  # only for (filtered) scans

    def distinct_count(self, column: str) -> float:
        if self.statistics is None:
            return max(self.cardinality, 1.0)
        try:
            ndv = self.statistics.column(column).distinct_count
        except KeyError:
            return max(self.cardinality, 1.0)
        return max(float(ndv), 1.0)


@dataclass
class _JoinEdge:
    """One equi-join condition between two relations (by index)."""

    left_relation: int
    left_column: str
    right_relation: int
    right_column: str
    condition: Expression


def reorder_joins(plan: PlanNode) -> PlanNode:
    """Reorder inner-join clusters of *plan* by estimated cardinality."""
    return _rewrite(plan)


def reads_statistics(plan: PlanNode) -> bool:
    """Whether :func:`reorder_joins` consults table statistics for *plan*
    (given or returned — the pass keeps every cluster's leaf count): such
    a plan is a function of the rows, not only of the catalog."""
    leaves: list[PlanNode] = []
    if isinstance(plan, Join):
        _collect_cluster(plan, leaves, [])
    return len(leaves) >= _MIN_CLUSTER_LEAVES or any(
        reads_statistics(child) for child in plan.children
    )


def _rewrite(node: PlanNode) -> PlanNode:
    # A filter directly above a join cluster contributes its equality
    # conjuncts as join conditions.
    if isinstance(node, Filter) and isinstance(node.child, Join):
        rebuilt = _guarded_reorder(node.child, _split_conjuncts(node.predicate))
        if rebuilt is not None:
            cluster, leftover = rebuilt
            result: PlanNode = cluster
            for conjunct in leftover:
                result = Filter(result, conjunct)
            return result
        return Filter(_rewrite(node.child), node.predicate)
    if isinstance(node, Join):
        rebuilt = _guarded_reorder(node, [])
        if rebuilt is not None:
            cluster, leftover = rebuilt
            result = cluster
            for conjunct in leftover:
                result = Filter(result, conjunct)
            return result
    return with_inputs(node, _rewrite)


def _guarded_reorder(
    root: Join, extra_conditions: list[Expression]
) -> tuple[PlanNode, list[Expression]] | None:
    """Reorder, falling back to the original plan on *any* failure.

    Rebinding conditions against a reshaped tree can hit ambiguity corner
    cases the estimator did not foresee; a missed optimization must never
    turn a valid query into an error."""
    try:
        return _try_reorder(root, extra_conditions)
    except ReproError:
        # Planner-level failures (binding, ambiguity) mean "keep the
        # original tree"; genuine bugs (TypeError & co.) must surface.
        return None


# ---------------------------------------------------------------------------
# Cluster collection
# ---------------------------------------------------------------------------


def _collect_cluster(
    node: PlanNode,
    leaves: list[PlanNode],
    conditions: list[Expression],
) -> bool:
    """Flatten a tree of inner/cross joins; False if anything else found."""
    if isinstance(node, Join) and node.kind in ("inner", "cross"):
        if not _collect_cluster(node.left, leaves, conditions):
            return False
        if not _collect_cluster(node.right, leaves, conditions):
            return False
        if node.condition is not None:
            conditions.extend(_split_conjuncts(node.condition))
        return True
    leaves.append(node)
    return True


def _split_conjuncts(predicate: Expression) -> list[Expression]:
    if isinstance(predicate, LogicalAnd):
        return _split_conjuncts(predicate.left) + _split_conjuncts(predicate.right)
    return [predicate]


def _estimate_leaf(leaf: PlanNode) -> _Relation:
    if isinstance(leaf, Scan):
        statistics = collect_statistics(leaf.table)
        return _Relation(leaf, float(statistics.row_count), statistics)
    if isinstance(leaf, Filter) and isinstance(leaf.child, Scan):
        statistics = collect_statistics(leaf.child.table)
        selectivity = _estimate_selectivity(leaf.predicate, statistics)
        return _Relation(leaf, statistics.row_count * selectivity, statistics)
    return _Relation(leaf, _DEFAULT_CARDINALITY, None)


def _estimate_selectivity(
    predicate: Expression, statistics: TableStatistics
) -> float:
    selectivity = 1.0
    for conjunct in _split_conjuncts(predicate):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
        ):
            try:
                column = statistics.column(conjunct.left.name)
            except KeyError:
                selectivity *= _FILTER_SELECTIVITY
                continue
            selectivity *= max(
                column.selectivity_equals(), _EQUALITY_SELECTIVITY_FLOOR
            )
        else:
            selectivity *= _FILTER_SELECTIVITY
    return selectivity


def _resolve_side(
    reference: ColumnRef, relations: Sequence[_Relation]
) -> int | None:
    """The unique relation index whose schema resolves *reference*."""
    matches = []
    for index, relation in enumerate(relations):
        try:
            relation.plan.schema.index_of(reference.name, reference.table)
        except SchemaError:
            continue
        matches.append(index)
    if len(matches) == 1:
        return matches[0]
    return None


# ---------------------------------------------------------------------------
# Reordering
# ---------------------------------------------------------------------------


def _try_reorder(
    root: Join, extra_conditions: list[Expression]
) -> tuple[PlanNode, list[Expression]] | None:
    """Reorder the cluster under *root*; None when not applicable.

    Returns (new plan, conjuncts that could not become join conditions).
    """
    leaves: list[PlanNode] = []
    conditions: list[Expression] = []
    if not _collect_cluster(root, leaves, conditions):
        return None
    if len(leaves) < _MIN_CLUSTER_LEAVES:
        return None

    relations = [_estimate_leaf(_rewrite(leaf)) for leaf in leaves]

    edges: list[_JoinEdge] = []
    leftover: list[Expression] = []
    for conjunct in conditions:
        edge = _as_edge(conjunct, relations)
        if edge is None:
            # A join condition that is not a simple equi-join keeps its
            # semantics only in the original shape; bail out entirely.
            # (Expression.__eq__ is operator sugar, so identity-based
            # bookkeeping — separate loops — is required here.)
            return None
        edges.append(edge)
    for conjunct in extra_conditions:
        edge = _as_edge(conjunct, relations)
        if edge is None:
            # Filter conjuncts that are not equi-joins simply stay filters.
            leftover.append(conjunct)
        else:
            edges.append(edge)

    ordered = _greedy_order(relations, edges)
    rebuilt = _build_left_deep(relations, edges, ordered)
    # Restore the original column order so the rewrite is invisible.
    original_schema = root.schema
    items = [
        ProjectItem(ColumnRef(column.name, column.table))
        for column in original_schema
    ]
    return Project(rebuilt, items), leftover


def _as_edge(
    conjunct: Expression, relations: Sequence[_Relation]
) -> _JoinEdge | None:
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    if not isinstance(conjunct.left, ColumnRef) or not isinstance(
        conjunct.right, ColumnRef
    ):
        return None
    left_index = _resolve_side(conjunct.left, relations)
    right_index = _resolve_side(conjunct.right, relations)
    if left_index is None or right_index is None or left_index == right_index:
        return None
    return _JoinEdge(
        left_index,
        conjunct.left.name,
        right_index,
        conjunct.right.name,
        conjunct,
    )


def _greedy_order(
    relations: Sequence[_Relation], edges: Sequence[_JoinEdge]
) -> list[int]:
    """Greedy smallest-result-first ordering of relation indexes."""
    remaining = set(range(len(relations)))
    adjacency: dict[int, list[_JoinEdge]] = {index: [] for index in remaining}
    for edge in edges:
        adjacency[edge.left_relation].append(edge)
        adjacency[edge.right_relation].append(edge)

    start = min(remaining, key=lambda index: relations[index].cardinality)
    order = [start]
    remaining.remove(start)
    current_size = relations[start].cardinality
    joined = {start}

    while remaining:
        best: tuple[float, int] | None = None
        for candidate in remaining:
            connecting = [
                edge
                for edge in adjacency[candidate]
                if (edge.left_relation in joined) != (edge.right_relation in joined)
                and candidate in (edge.left_relation, edge.right_relation)
            ]
            if not connecting:
                continue
            estimate = _join_estimate(
                current_size, relations, candidate, connecting
            )
            if best is None or estimate < best[0]:
                best = (estimate, candidate)
        if best is None:
            # No connected relation: take the smallest (cross product).
            candidate = min(
                remaining, key=lambda index: relations[index].cardinality
            )
            best = (current_size * relations[candidate].cardinality, candidate)
        current_size, chosen = best
        order.append(chosen)
        joined.add(chosen)
        remaining.remove(chosen)
    return order


def _join_estimate(
    current_size: float,
    relations: Sequence[_Relation],
    candidate: int,
    connecting: Sequence[_JoinEdge],
) -> float:
    size = current_size * relations[candidate].cardinality
    for edge in connecting:
        if edge.left_relation == candidate:
            column, other, other_column = (
                edge.left_column,
                edge.right_relation,
                edge.right_column,
            )
        else:
            column, other, other_column = (
                edge.right_column,
                edge.left_relation,
                edge.left_column,
            )
        ndv = max(
            relations[candidate].distinct_count(column),
            relations[other].distinct_count(other_column),
        )
        size /= ndv
    return max(size, 1.0)


def _build_left_deep(
    relations: Sequence[_Relation],
    edges: Sequence[_JoinEdge],
    order: Sequence[int],
) -> PlanNode:
    placed = {order[0]}
    tree: PlanNode = relations[order[0]].plan
    used: set[int] = set()
    for index in order[1:]:
        applicable = []
        for edge_index, edge in enumerate(edges):
            if edge_index in used:
                continue
            endpoints = {edge.left_relation, edge.right_relation}
            if index in endpoints and endpoints <= placed | {index}:
                applicable.append((edge_index, edge))
        condition: Expression | None = None
        for _edge_index, edge in applicable:
            condition = (
                edge.condition
                if condition is None
                else LogicalAnd(condition, edge.condition)
            )
        used.update(edge_index for edge_index, _edge in applicable)
        if condition is None:
            tree = Join(tree, relations[index].plan, None, "cross")
        else:
            tree = Join(tree, relations[index].plan, condition, "inner")
        placed.add(index)
    return tree
