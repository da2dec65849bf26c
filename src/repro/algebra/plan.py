"""Logical query plans.

Plan nodes are immutable descriptions of relational operations; each node
derives (and validates) its output schema at construction time, so schema
errors surface when the plan is built, not when it runs.  The tree is a
logical *relation tree* in the lsst.daf.relation sense: it says nothing
about how rows are produced: the vectorized columnar engine executes it,
and the row-at-a-time :mod:`~repro.algebra.executor` (the native
reference) must agree with it exactly (see ``docs/ENGINES.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import PlanError
from ..storage.schema import Column, Schema
from ..storage.table import Table
from ..storage.types import BOOLEAN, INTEGER, REAL, DataType
from .expressions import BoundExpression, Expression

__all__ = [
    "PlanNode",
    "Scan",
    "rebind_scans",
    "with_inputs",
    "Alias",
    "Filter",
    "ProjectItem",
    "Project",
    "Join",
    "SemiJoin",
    "SetOperation",
    "AggregateSpec",
    "Aggregate",
    "SortKey",
    "Sort",
    "Limit",
]

_AGGREGATE_NAMES = ("COUNT", "SUM", "AVG", "MIN", "MAX")
_JOIN_KINDS = ("inner", "left", "cross")
_SET_KINDS = ("union", "union_all", "intersect", "except")


class PlanNode:
    """Base class of logical plan nodes."""

    schema: Schema

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def explain(self, indent: int = 0) -> str:
        """Human-readable plan tree (like ``EXPLAIN``)."""
        pad = "  " * indent
        lines = [f"{pad}{self._describe()}"]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__


class Scan(PlanNode):
    """Full scan of a stored table, optionally under an alias.

    *name* is what the catalog lookup used (default: the table's own);
    with ``table_schema`` it is all a cached, table-free plan keeps.
    """

    def __init__(
        self, table: Table, alias: str | None = None, name: str | None = None
    ) -> None:
        self.table = table
        self.name = name or table.name
        self.alias = alias
        self.table_schema = table.schema
        self.schema = (
            table.schema.qualify(alias) if alias else table.schema
        )

    def _describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"Scan({self.table.name}{alias})"


def rebind_scans(node: PlanNode, table_of) -> PlanNode:
    """A copy of *node*'s spine whose scans read ``table_of(scan)``.

    Nodes are copied, never patched — a cached template is shared between
    threads; the immutable expressions and schemas stay shared.
    """
    clone = object.__new__(type(node))
    clone.__dict__.update(node.__dict__)
    if isinstance(node, Scan):
        clone.table = table_of(node)
    for field in ("child", "left", "right"):
        if field in clone.__dict__:
            setattr(clone, field, rebind_scans(getattr(node, field), table_of))
    return clone


class Alias(PlanNode):
    """Re-qualify a derived relation under a new name (ρ / SQL ``AS``).

    Values and lineage pass through unchanged; only the schema's column
    qualifiers change, so ``alias.column`` references resolve above it.
    """

    def __init__(self, child: PlanNode, name: str) -> None:
        if not name:
            raise PlanError("alias name must be non-empty")
        self.child = child
        self.name = name
        self.schema = child.schema.qualify(name)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return f"Alias({self.name})"


class Filter(PlanNode):
    """Rows of *child* where *predicate* is true (σ)."""

    def __init__(self, child: PlanNode, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate
        self.bound_predicate: BoundExpression = predicate.bind(child.schema)
        if self.bound_predicate.dtype is not BOOLEAN:
            raise PlanError(
                f"filter predicate must be boolean, got "
                f"{self.bound_predicate.dtype}"
            )
        self.schema = child.schema

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        return f"Filter({self.bound_predicate.display})"


@dataclass(frozen=True)
class ProjectItem:
    """One output column of a projection: an expression plus its name."""

    expression: Expression
    alias: str | None = None


class Project(PlanNode):
    """Computed projection (π), optionally with duplicate elimination.

    With ``distinct=True`` duplicate output rows are merged and their
    lineages OR-ed — the operation that creates disjunctive lineage in the
    paper's running example.
    """

    def __init__(
        self,
        child: PlanNode,
        items: Sequence[ProjectItem],
        distinct: bool = False,
    ) -> None:
        if not items:
            raise PlanError("projection must keep at least one column")
        self.child = child
        self.items = tuple(items)
        self.distinct = distinct
        self.bound_items: list[BoundExpression] = [
            item.expression.bind(child.schema) for item in self.items
        ]
        columns = []
        for item, bound in zip(self.items, self.bound_items):
            name = item.alias
            table = None
            if name is None:
                # Bare column references keep their name *and* qualifier —
                # a self-join's ``SELECT e.name, m.name`` must produce two
                # distinguishable output columns.  Computed columns get
                # their display string as a name.
                from .expressions import ColumnRef

                if isinstance(item.expression, ColumnRef):
                    name = item.expression.name
                    table = item.expression.table
                else:
                    name = bound.display
            columns.append(Column(name, bound.dtype, table))
        self.schema = Schema(columns)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        keyword = "ProjectDistinct" if self.distinct else "Project"
        body = ", ".join(bound.display for bound in self.bound_items)
        return f"{keyword}({body})"


class Join(PlanNode):
    """Join of two inputs (⋈); lineage of each match is AND(left, right).

    ``kind``:

    * ``"inner"`` — rows where *condition* holds;
    * ``"left"`` — inner matches plus NULL-padded unmatched left rows whose
      lineage is ``left AND NOT (OR of joinable right rows)``;
    * ``"cross"`` — Cartesian product (no condition allowed).
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: Expression | None = None,
        kind: str = "inner",
    ) -> None:
        if kind not in _JOIN_KINDS:
            raise PlanError(f"unknown join kind {kind!r}")
        if kind == "cross" and condition is not None:
            raise PlanError("cross join takes no condition")
        if kind != "cross" and condition is None:
            raise PlanError(f"{kind} join requires a condition")
        self.left = left
        self.right = right
        self.kind = kind
        self.condition = condition
        self.schema = left.schema.concat(right.schema)
        self.bound_condition: BoundExpression | None = None
        if condition is not None:
            self.bound_condition = condition.bind(self.schema)
            if self.bound_condition.dtype is not BOOLEAN:
                raise PlanError(
                    f"join condition must be boolean, got "
                    f"{self.bound_condition.dtype}"
                )

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def _describe(self) -> str:
        condition = (
            f" ON {self.bound_condition.display}" if self.bound_condition else ""
        )
        return f"Join[{self.kind}]{condition}"


class SemiJoin(PlanNode):
    """Lineage-aware semi-/anti-join: ``expr [NOT] IN (subquery)``.

    Keeps the left input's schema.  A left row matching subquery rows gets
    lineage ``left AND (OR of matching rows)``; with ``negated=True`` the
    complement ``left AND NOT (OR of matching rows)``.  SQL's NULL rules
    apply: a NULL probe never matches, and any NULL in the subquery output
    makes every NOT IN row unknown (dropped).
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        probe: Expression,
        negated: bool = False,
    ) -> None:
        if len(right.schema) != 1:
            raise PlanError(
                f"IN subquery must produce exactly one column, got "
                f"{len(right.schema)}"
            )
        self.left = left
        self.right = right
        self.probe = probe
        self.negated = negated
        self.bound_probe: BoundExpression = probe.bind(left.schema)
        right_type = right.schema[0].dtype
        if not (
            self.bound_probe.dtype is right_type
            or (self.bound_probe.dtype.is_numeric and right_type.is_numeric)
        ):
            raise PlanError(
                f"IN subquery type mismatch: {self.bound_probe.dtype} vs "
                f"{right_type}"
            )
        self.schema = left.schema

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def _describe(self) -> str:
        keyword = "AntiJoin" if self.negated else "SemiJoin"
        return f"{keyword}({self.bound_probe.display} IN subquery)"


def _compatible(left: DataType, right: DataType) -> bool:
    if left is right:
        return True
    return left.is_numeric and right.is_numeric


class SetOperation(PlanNode):
    """UNION / UNION ALL / INTERSECT / EXCEPT.

    Distinct variants merge duplicate rows and combine lineage:
    union → OR of both sides; intersect → AND of the two sides' ORs;
    except → left OR AND NOT(right OR).  Column names come from the left
    input; types must match positionally (numerics may mix and widen).
    """

    def __init__(self, left: PlanNode, right: PlanNode, kind: str) -> None:
        if kind not in _SET_KINDS:
            raise PlanError(f"unknown set operation {kind!r}")
        if len(left.schema) != len(right.schema):
            raise PlanError(
                f"{kind}: inputs have {len(left.schema)} vs "
                f"{len(right.schema)} columns"
            )
        columns = []
        for left_column, right_column in zip(left.schema, right.schema):
            if not _compatible(left_column.dtype, right_column.dtype):
                raise PlanError(
                    f"{kind}: column {left_column.name!r} has type "
                    f"{left_column.dtype} vs {right_column.dtype}"
                )
            dtype = left_column.dtype
            if left_column.dtype is not right_column.dtype:
                dtype = REAL  # numeric widening
            columns.append(Column(left_column.name, dtype))
        self.left = left
        self.right = right
        self.kind = kind
        self.schema = Schema(columns)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def _describe(self) -> str:
        return f"SetOperation[{self.kind}]"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: ``function(argument) AS alias``.

    ``argument`` is ``None`` only for ``COUNT(*)``.
    """

    function: str
    argument: Expression | None = None
    alias: str | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        name = self.function.upper()
        if name not in _AGGREGATE_NAMES:
            raise PlanError(f"unknown aggregate {self.function!r}")
        object.__setattr__(self, "function", name)
        if self.argument is None and name != "COUNT":
            raise PlanError(f"{name} requires an argument")

    @property
    def display(self) -> str:
        inner = "*" if self.argument is None else "?"
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.function}({prefix}{inner})"


class Aggregate(PlanNode):
    """Grouped aggregation (γ).

    Output rows are one per group; a group's lineage is the OR of its member
    rows' lineages (the probability that the group is non-empty).  Aggregate
    *values* are computed over all member rows — expected-value semantics
    over possible worlds are out of scope (see DESIGN.md non-goals).
    """

    def __init__(
        self,
        child: PlanNode,
        group_by: Sequence[Expression],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        if not aggregates and not group_by:
            raise PlanError("aggregate needs group keys or aggregate functions")
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        self.bound_keys: list[BoundExpression] = [
            key.bind(child.schema) for key in self.group_by
        ]
        self.bound_arguments: list[BoundExpression | None] = []
        columns: list[Column] = []
        from .expressions import ColumnRef

        for key, bound in zip(self.group_by, self.bound_keys):
            if isinstance(key, ColumnRef):
                columns.append(Column(key.name, bound.dtype))
            else:
                columns.append(Column(bound.display, bound.dtype))
        for spec in self.aggregates:
            bound_argument = (
                spec.argument.bind(child.schema)
                if spec.argument is not None
                else None
            )
            self.bound_arguments.append(bound_argument)
            dtype = self._output_type(spec, bound_argument)
            name = spec.alias or spec.display
            columns.append(Column(name, dtype))
        self.schema = Schema(columns)

    @staticmethod
    def _output_type(
        spec: AggregateSpec, bound_argument: BoundExpression | None
    ) -> DataType:
        if spec.function == "COUNT":
            return INTEGER
        assert bound_argument is not None
        if spec.function in ("MIN", "MAX"):
            return bound_argument.dtype
        if not bound_argument.dtype.is_numeric:
            raise PlanError(
                f"{spec.function} requires a numeric argument, got "
                f"{bound_argument.dtype}"
            )
        if spec.function == "AVG":
            return REAL
        return bound_argument.dtype  # SUM keeps input type

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        keys = ", ".join(bound.display for bound in self.bound_keys)
        aggs = ", ".join(spec.display for spec in self.aggregates)
        return f"Aggregate(keys=[{keys}], aggs=[{aggs}])"


@dataclass(frozen=True)
class SortKey:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


class Sort(PlanNode):
    """Sort rows by one or more keys (NULLs first ascending, last descending)."""

    def __init__(self, child: PlanNode, keys: Sequence[SortKey]) -> None:
        if not keys:
            raise PlanError("sort requires at least one key")
        self.child = child
        self.keys = tuple(keys)
        self.bound_keys: list[BoundExpression] = [
            key.expression.bind(child.schema) for key in self.keys
        ]
        self.schema = child.schema

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        parts = [
            f"{bound.display}{' DESC' if key.descending else ''}"
            for key, bound in zip(self.keys, self.bound_keys)
        ]
        return f"Sort({', '.join(parts)})"


class Limit(PlanNode):
    """Keep at most *count* rows after skipping *offset*."""

    def __init__(self, child: PlanNode, count: int, offset: int = 0) -> None:
        if count < 0 or offset < 0:
            raise PlanError("LIMIT/OFFSET must be non-negative")
        self.child = child
        self.count = count
        self.offset = offset
        self.schema = child.schema

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _describe(self) -> str:
        suffix = f" OFFSET {self.offset}" if self.offset else ""
        return f"Limit({self.count}{suffix})"


def with_inputs(node: PlanNode, transform) -> PlanNode:
    """*node* rebuilt, through its constructor (schemas re-derived,
    expressions re-bound), over ``transform(input)`` for each input — the
    one traversal every optimizer pass shares.  Leaves and node types
    unknown here come back untouched: correctness first."""
    if isinstance(node, Filter):
        return Filter(transform(node.child), node.predicate)
    if isinstance(node, Project):
        return Project(transform(node.child), node.items, node.distinct)
    if isinstance(node, Join):
        return Join(
            transform(node.left), transform(node.right), node.condition, node.kind
        )
    if isinstance(node, SemiJoin):
        return SemiJoin(
            transform(node.left), transform(node.right), node.probe, node.negated
        )
    if isinstance(node, Alias):
        return Alias(transform(node.child), node.name)
    if isinstance(node, Sort):
        return Sort(transform(node.child), node.keys)
    if isinstance(node, Limit):
        return Limit(transform(node.child), node.count, node.offset)
    if isinstance(node, SetOperation):
        return SetOperation(transform(node.left), transform(node.right), node.kind)
    if isinstance(node, Aggregate):
        return Aggregate(transform(node.child), node.group_by, node.aggregates)
    return node
