"""Rule-based logical optimization.

A small, conservative optimizer sufficient for the paper's workloads:

* **Conjunction splitting** — ``Filter(a AND b)`` becomes two stacked
  filters so each conjunct can move independently.
* **Predicate pushdown** — a filter over a join moves to the join side that
  supplies all columns it reads; a filter over a (non-distinct, pure-column)
  projection moves below it; filters over set-preserving operators (sort)
  move below them.
* **Filter merging** — adjacent filters re-merge at the end so the executor
  evaluates one predicate per surviving filter node.

The rewrites never change result multiplicity or lineage: pushdown only
crosses operators where selection commutes (it is *not* pushed through
DISTINCT projections, aggregates, limits or outer joins).
"""

from __future__ import annotations

from ..errors import SchemaError
from .expressions import ColumnRef, Expression, LogicalAnd
from .plan import Filter, Join, PlanNode, Project, SemiJoin, Sort, with_inputs

__all__ = ["optimize"]


def optimize(plan: PlanNode, reorder: bool = True) -> PlanNode:
    """Return an equivalent, possibly cheaper plan.

    Passes: conjunction splitting + predicate pushdown, statistics-driven
    join reordering (:mod:`repro.algebra.joins`; disable with
    ``reorder=False``), then filter merging.
    """
    plan = _push_down(plan)
    if reorder:
        from .joins import reorder_joins

        plan = reorder_joins(plan)
    return _merge_filters(plan)


def _split_conjuncts(predicate: Expression) -> list[Expression]:
    if isinstance(predicate, LogicalAnd):
        return _split_conjuncts(predicate.left) + _split_conjuncts(predicate.right)
    return [predicate]


def _references_resolvable(predicate: Expression, schema) -> bool:
    """Whether every column the predicate reads resolves in *schema*."""
    for table, name in predicate.references():
        try:
            schema.index_of(name, table)
        except SchemaError:
            # Unknown or ambiguous here — the predicate cannot be pushed
            # to this operand.  Anything else (a buggy expression) surfaces.
            return False
    return True


def _push_down(node: PlanNode) -> PlanNode:
    if not isinstance(node, Filter):
        return with_inputs(node, _push_down)

    child = _push_down(node.child)
    conjuncts = _split_conjuncts(node.predicate)
    remaining: list[Expression] = []
    for conjunct in conjuncts:
        child = _try_push(child, conjunct, remaining)
    result: PlanNode = child
    for conjunct in remaining:
        result = Filter(result, conjunct)
    return result


def _try_push(
    child: PlanNode, conjunct: Expression, remaining: list[Expression]
) -> PlanNode:
    """Push one conjunct as deep as it can go; returns the new child."""
    if isinstance(child, Join) and child.kind == "inner":
        if _references_resolvable(conjunct, child.left.schema):
            return Join(
                _push_down(Filter(child.left, conjunct)),
                child.right,
                child.condition,
                child.kind,
            )
        if _references_resolvable(conjunct, child.right.schema):
            return Join(
                child.left,
                _push_down(Filter(child.right, conjunct)),
                child.condition,
                child.kind,
            )
    if (
        isinstance(child, Project)
        and not child.distinct
        and _projection_is_pure(child)
        and _references_resolvable(conjunct, child.child.schema)
    ):
        pushed = _push_down(Filter(child.child, conjunct))
        return Project(pushed, child.items, child.distinct)
    if isinstance(child, Sort):
        pushed = _push_down(Filter(child.child, conjunct))
        return Sort(pushed, child.keys)
    if isinstance(child, SemiJoin) and _references_resolvable(
        conjunct, child.left.schema
    ):
        # Selection commutes with a semi-join on its preserved side.
        return SemiJoin(
            _push_down(Filter(child.left, conjunct)),
            child.right,
            child.probe,
            child.negated,
        )
    remaining.append(conjunct)
    return child


def _projection_is_pure(project: Project) -> bool:
    """True when every projected item is a bare, un-renamed column — the
    only case where names visible above the projection are guaranteed to
    resolve identically below it."""
    for item in project.items:
        if not isinstance(item.expression, ColumnRef):
            return False
        if item.alias is not None and item.alias != item.expression.name:
            return False
    return True


def _merge_filters(node: PlanNode) -> PlanNode:
    if isinstance(node, Filter):
        child = _merge_filters(node.child)
        predicate = node.predicate
        while isinstance(child, Filter):
            predicate = LogicalAnd(child.predicate, predicate)
            child = child.child
        return Filter(child, predicate)
    return with_inputs(node, _merge_filters)
