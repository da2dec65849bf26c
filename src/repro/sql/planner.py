"""Planner: SQL AST → logical algebra plan.

Responsibilities beyond a straight mapping:

* **Star expansion** — ``*`` / ``alias.*`` become explicit column lists.
* **Aggregate extraction** — every :class:`~repro.sql.ast.AggregateCall`
  inside SELECT/HAVING is pulled into an :class:`~repro.algebra.Aggregate`
  operator; the surrounding expressions are rewritten to reference the
  aggregate's output columns, so ``SUM(x)/COUNT(*)`` works.
* **Group validation** — bare columns in a grouped SELECT must appear in
  ``GROUP BY`` (same rule as standard SQL).
* **HAVING** — planned as a filter between aggregation and projection.
* **ORDER BY** — resolved against the *output* schema; integer keys are
  1-based output positions.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra.expressions import (
    Arithmetic,
    Between,
    CaseExpression,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Negate,
)
from ..algebra.plan import (
    Aggregate,
    AggregateSpec,
    Alias,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    ProjectItem,
    Scan,
    SetOperation,
    Sort,
    SortKey,
)
from ..errors import BindError, PlanError, SchemaError
from ..storage.database import Database
from .ast import (
    AggregateCall,
    DerivedTable,
    JoinClause,
    NamedTable,
    OrderItem,
    SelectItem,
    SelectStatement,
    SetStatement,
    Star,
    Statement,
    TableRef,
)

__all__ = ["Planning", "plan_statement"]


class Planning:
    """State of one planning call: the catalog it reads, the views it is
    expanding (the cycle guard) and the views it resolved — with the
    plan's scans, all a cached plan is re-validated against."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.expanding: list[str] = []
        #: lowercase view name → the definition text that was expanded.
        self.views: dict[str, str] = {}

    def plan(self, statement: Statement) -> PlanNode:
        if isinstance(statement, SetStatement):
            plan = SetOperation(
                self.plan(_strip_trailers(statement.left)),
                self.plan(_strip_trailers(statement.right)),
                statement.kind,
            )
            return _apply_trailers(
                plan, statement.order_by, statement.limit, statement.offset
            )
        return _plan_select(self, statement)


def plan_statement(db: Database, statement: Statement) -> PlanNode:
    """Convert a parsed *statement* into an executable logical plan."""
    return Planning(db).plan(statement)


def _strip_trailers(statement: Statement) -> Statement:
    """Operands of a set operation may not carry their own ORDER/LIMIT."""
    if isinstance(statement, SelectStatement) and (
        statement.order_by or statement.limit is not None or statement.offset
    ):
        raise PlanError(
            "ORDER BY / LIMIT must follow the whole set operation, not an operand"
        )
    return statement


# ---------------------------------------------------------------------------
# SELECT planning
# ---------------------------------------------------------------------------


def _plan_select(planning: Planning, statement: SelectStatement) -> PlanNode:
    plan = _plan_from(planning, statement.from_tables, statement.joins)
    if statement.where is not None:
        plan = _plan_where(planning, plan, statement.where)

    items = _expand_stars(statement.items, plan)
    aggregate_calls: list[AggregateCall] = []
    for item in items:
        _collect_aggregates(item.expression, aggregate_calls)
    if statement.having is not None:
        _collect_aggregates(statement.having, aggregate_calls)

    if aggregate_calls or statement.group_by:
        plan = _plan_grouped(plan, statement, items, aggregate_calls)
    else:
        plan = Project(
            plan,
            [ProjectItem(item.expression, item.alias) for item in items],
            distinct=statement.distinct,
        )
    return _apply_trailers(
        plan, statement.order_by, statement.limit, statement.offset
    )


def _plan_where(
    planning: Planning, plan: PlanNode, where: Expression
) -> PlanNode:
    """Plan a WHERE clause, rewriting IN-subquery conjuncts to semi-joins.

    ``expr [NOT] IN (SELECT …)`` is supported as a top-level conjunct —
    the shape whose lineage semantics are well defined (outer row AND
    [NOT] OR-of-matching-subquery-rows).  Anywhere deeper (under OR/NOT,
    in arithmetic) it is rejected with a clear error.
    """
    from ..algebra.plan import SemiJoin
    from .ast import InSubquery

    remaining: list[Expression] = []
    for conjunct in _where_conjuncts(where):
        if isinstance(conjunct, InSubquery):
            subplan = planning.plan(conjunct.query)
            plan = SemiJoin(plan, subplan, conjunct.operand, conjunct.negated)
        else:
            _reject_nested_subqueries(conjunct)
            remaining.append(conjunct)
    for conjunct in remaining:
        plan = Filter(plan, conjunct)
    return plan


def _where_conjuncts(expression: Expression) -> list[Expression]:
    if isinstance(expression, LogicalAnd):
        return _where_conjuncts(expression.left) + _where_conjuncts(
            expression.right
        )
    return [expression]


def _reject_nested_subqueries(
    expression: Expression,
    refusal: str = (
        "IN (SELECT ...) is only supported as a top-level WHERE conjunct"
    ),
) -> None:
    """Raise *refusal* if *expression* holds a subquery at any depth."""
    from .ast import InSubquery

    if isinstance(expression, InSubquery):
        raise PlanError(refusal)
    for child in _expression_children(expression):
        _reject_nested_subqueries(child, refusal)


def _plan_from(
    planning: Planning,
    tables: Sequence[TableRef],
    joins: Sequence[JoinClause],
) -> PlanNode:
    if not tables:
        raise PlanError("FROM clause must name at least one table")
    plan = _plan_table_ref(planning, tables[0])
    for table in tables[1:]:  # comma-separated FROM items are cross products
        plan = Join(plan, _plan_table_ref(planning, table), None, "cross")
    for join in joins:
        right = _plan_table_ref(planning, join.table)
        plan = Join(plan, right, join.condition, join.kind)
    return plan


def _plan_table_ref(planning: Planning, ref: TableRef) -> PlanNode:
    if isinstance(ref, NamedTable):
        db = planning.db
        if db.has_table(ref.name):
            return Scan(db.table(ref.name), ref.alias, ref.name)
        definition = db.view_definition(ref.name)
        if definition is not None:
            return _plan_view(planning, ref.name, definition, ref.alias)
        # Let the catalog raise its usual UnknownTableError.
        return Scan(db.table(ref.name), ref.alias)
    if isinstance(ref, DerivedTable):
        inner = planning.plan(ref.query)
        return Alias(inner, ref.alias)
    raise PlanError(f"unsupported table reference {ref!r}")  # pragma: no cover


def _plan_view(
    planning: Planning, name: str, definition: str, alias: str | None
) -> PlanNode:
    """Expand a view like a derived table, guarding against cycles."""
    from .parser import parse

    key = name.lower()
    if key in planning.expanding:
        chain = " -> ".join([*planning.expanding, key])
        raise PlanError(f"view definitions form a cycle: {chain}")
    planning.views[key] = definition
    planning.expanding.append(key)
    try:
        inner = planning.plan(parse(definition))
    finally:
        planning.expanding.pop()
    return Alias(inner, alias or name)


def _expand_stars(
    items: Sequence[SelectItem], plan: PlanNode
) -> list[SelectItem]:
    expanded: list[SelectItem] = []
    for item in items:
        if isinstance(item.expression, Star):
            star = item.expression
            columns = [
                column
                for column in plan.schema
                if star.table is None
                or (column.table or "").lower() == star.table.lower()
            ]
            if not columns:
                raise PlanError(f"no columns match {star.table}.*")
            expanded.extend(
                SelectItem(ColumnRef(column.name, column.table))
                for column in columns
            )
        else:
            expanded.append(item)
    return expanded


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _collect_aggregates(
    expression: "Expression | Star", found: list[AggregateCall]
) -> None:
    if isinstance(expression, AggregateCall):
        if expression.argument is not None:
            nested: list[AggregateCall] = []
            _collect_aggregates(expression.argument, nested)
            if nested:
                raise PlanError("aggregates cannot be nested")
        found.append(expression)
        return
    for child in _expression_children(expression):
        _collect_aggregates(child, found)


def _expression_children(expression: "Expression | Star") -> list[Expression]:
    if isinstance(expression, (Literal, ColumnRef, Star)):
        return []
    if isinstance(expression, (Arithmetic, Comparison, LogicalAnd, LogicalOr)):
        return [expression.left, expression.right]
    if isinstance(expression, (LogicalNot, Negate)):
        return [getattr(expression, "operand", None) or expression.operand]
    if isinstance(expression, IsNull):
        return [expression.operand]
    if isinstance(expression, Like):
        return [expression.operand]
    if isinstance(expression, InList):
        return [expression.operand, *expression.options]
    if isinstance(expression, Between):
        return [expression.operand, expression.low, expression.high]
    if isinstance(expression, FunctionCall):
        return list(expression.arguments)
    if isinstance(expression, CaseExpression):
        children = []
        for condition, result in expression.whens:
            children.extend([condition, result])
        if expression.default is not None:
            children.append(expression.default)
        return children
    if isinstance(expression, AggregateCall):
        return [expression.argument] if expression.argument is not None else []
    from .ast import InSubquery

    if isinstance(expression, InSubquery):
        # Reachable from SELECT-list / HAVING walks, where subqueries are
        # not supported; the WHERE path handles them before walking.
        raise PlanError(
            "IN (SELECT ...) is only supported as a top-level WHERE conjunct"
        )
    raise PlanError(f"unsupported expression node {type(expression).__name__}")


def _plan_grouped(
    plan: PlanNode,
    statement: SelectStatement,
    items: list[SelectItem],
    aggregate_calls: list[AggregateCall],
) -> PlanNode:
    group_keys = list(statement.group_by)
    # Aggregate specs: one output column per syntactic AggregateCall.
    agg_names: dict[int, str] = {}
    specs: list[AggregateSpec] = []
    for index, call in enumerate(aggregate_calls):
        name = f"__agg{index}__"
        agg_names[id(call)] = name
        specs.append(
            AggregateSpec(call.function, call.argument, name, call.distinct)
        )
    aggregate_node = Aggregate(plan, group_keys, specs)

    key_names: dict[tuple[str | None, str], str] = {}
    # Expression-valued group keys (e.g. GROUP BY CASE ... END) are matched
    # structurally: a select-list expression that binds to the same display
    # string as a key refers to that key's output column.
    key_displays: dict[str, str] = {}
    for key, bound, column in zip(
        group_keys, aggregate_node.bound_keys, aggregate_node.schema
    ):
        if isinstance(key, ColumnRef):
            key_names[(key.table, key.name)] = column.name
        else:
            key_names[(None, column.name)] = column.name
            key_displays[bound.display] = column.name

    child_schema = plan.schema

    def rewrite(expression: Expression) -> Expression:
        return _rewrite_post_aggregate(
            expression, agg_names, key_names, key_displays, child_schema
        )

    result: PlanNode = aggregate_node
    if statement.having is not None:
        result = Filter(result, rewrite(statement.having))
    project_items = [
        ProjectItem(rewrite(item.expression), item.alias or _default_name(item))
        for item in items
    ]
    return Project(result, project_items, distinct=statement.distinct)


def _default_name(item: SelectItem) -> str | None:
    # Bare columns keep their own name via Project's default; aggregate-only
    # items get a friendlier name than __aggN__.
    if isinstance(item.expression, AggregateCall):
        call = item.expression
        inner = "*" if call.argument is None else _display(call.argument)
        prefix = "DISTINCT " if call.distinct else ""
        return f"{call.function}({prefix}{inner})"
    return None


def _display(expression: Expression) -> str:
    if isinstance(expression, ColumnRef):
        return (
            f"{expression.table}.{expression.name}"
            if expression.table
            else expression.name
        )
    return type(expression).__name__.lower()


def _rewrite_post_aggregate(
    expression: Expression,
    agg_names: dict[int, str],
    key_names: dict[tuple[str | None, str], str],
    key_displays: dict[str, str] | None = None,
    child_schema=None,
) -> Expression:
    if isinstance(expression, AggregateCall):
        return ColumnRef(agg_names[id(expression)])
    # An expression structurally identical to a GROUP BY key refers to that
    # key's output column (SQL's "expression appears in GROUP BY" rule).
    if (
        key_displays
        and child_schema is not None
        and not isinstance(expression, (ColumnRef, Literal))
    ):
        try:
            display = expression.bind(child_schema).display
        except (BindError, SchemaError):
            display = None  # contains aggregates or unresolvable names
        if display is not None and display in key_displays:
            return ColumnRef(key_displays[display])
    if isinstance(expression, ColumnRef):
        key = (expression.table, expression.name)
        if key in key_names:
            return ColumnRef(key_names[key])
        unqualified = (None, expression.name)
        if expression.table is not None and unqualified in key_names:
            return ColumnRef(key_names[unqualified])
        # Also allow the reverse: unqualified reference to a qualified key.
        for (table, name), output in key_names.items():
            if name.lower() == expression.name.lower() and expression.table is None:
                return ColumnRef(output)
        raise BindError(
            f"column {expression.name!r} must appear in GROUP BY or inside "
            f"an aggregate"
        )
    if isinstance(expression, Literal):
        return expression

    def recurse(child: Expression) -> Expression:
        return _rewrite_post_aggregate(
            child, agg_names, key_names, key_displays, child_schema
        )

    if isinstance(expression, Arithmetic):
        return Arithmetic(
            expression.op, recurse(expression.left), recurse(expression.right)
        )
    if isinstance(expression, Comparison):
        return Comparison(
            expression.op, recurse(expression.left), recurse(expression.right)
        )
    if isinstance(expression, LogicalAnd):
        return LogicalAnd(recurse(expression.left), recurse(expression.right))
    if isinstance(expression, LogicalOr):
        return LogicalOr(recurse(expression.left), recurse(expression.right))
    if isinstance(expression, LogicalNot):
        return LogicalNot(recurse(expression.operand))
    if isinstance(expression, Negate):
        return Negate(recurse(expression.operand))
    if isinstance(expression, IsNull):
        return IsNull(recurse(expression.operand), expression.negated)
    if isinstance(expression, Like):
        return Like(recurse(expression.operand), expression.pattern, expression.negated)
    if isinstance(expression, InList):
        return InList(
            recurse(expression.operand),
            [recurse(option) for option in expression.options],
            expression.negated,
        )
    if isinstance(expression, Between):
        return Between(
            recurse(expression.operand),
            recurse(expression.low),
            recurse(expression.high),
            expression.negated,
        )
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            expression.name,
            [recurse(argument) for argument in expression.arguments],
        )
    if isinstance(expression, CaseExpression):
        return CaseExpression(
            [
                (recurse(condition), recurse(result))
                for condition, result in expression.whens
            ],
            recurse(expression.default)
            if expression.default is not None
            else None,
        )
    raise PlanError(
        f"unsupported expression in grouped query: {type(expression).__name__}"
    )


# ---------------------------------------------------------------------------
# ORDER BY / LIMIT
# ---------------------------------------------------------------------------


def _apply_trailers(
    plan: PlanNode,
    order_by: Sequence[OrderItem],
    limit: int | None,
    offset: int,
) -> PlanNode:
    if order_by:
        keys = []
        for item in order_by:
            if isinstance(item.expression, int):
                position = item.expression
                if not 1 <= position <= len(plan.schema):
                    raise PlanError(
                        f"ORDER BY position {position} out of range "
                        f"1..{len(plan.schema)}"
                    )
                column = plan.schema[position - 1]
                expression: Expression = ColumnRef(column.name, column.table)
            else:
                expression = item.expression
            keys.append(SortKey(expression, item.descending))
        plan = _plan_sort(plan, keys)
    if limit is not None:
        plan = Limit(plan, limit, offset)
    elif offset:
        plan = Limit(plan, 2**63 - 1, offset)
    return plan


def _plan_sort(plan: PlanNode, keys: list[SortKey]) -> PlanNode:
    """Plan a sort whose keys may reference pre-projection columns.

    SQL allows ``ORDER BY`` to use input columns that the SELECT list
    dropped.  Keys are first resolved against the output schema; any that
    fail are carried as *hidden* projection columns — the projection is
    extended, the sort runs over it, and a final projection restores the
    original columns.
    """
    try:
        return Sort(plan, keys)
    except (BindError, SchemaError):
        if not isinstance(plan, Project) or plan.distinct:
            raise
    hidden_items = list(plan.items)
    rewritten_keys: list[SortKey] = []
    for index, key in enumerate(keys):
        try:
            key.expression.bind(plan.schema)
        except (BindError, SchemaError):
            # Resolve below the projection instead, through a hidden column.
            key.expression.bind(plan.child.schema)  # surface real errors
            hidden_name = f"__sort{index}__"
            hidden_items.append(ProjectItem(key.expression, hidden_name))
            rewritten_keys.append(
                SortKey(ColumnRef(hidden_name), key.descending)
            )
            continue
        rewritten_keys.append(key)
    extended = Project(plan.child, hidden_items, distinct=False)
    sorted_plan = Sort(extended, rewritten_keys)
    restore = [
        ProjectItem(ColumnRef(column.name, column.table), column.name)
        for column in plan.schema
    ]
    return Project(sorted_plan, restore)
