"""SQL front end: lexer, parser, and planner.

High-level helpers:

* :func:`prepare` — SQL text → parsed command + optimized plan, once per
  (text, catalog state): the plan cache sits here
* :func:`plan_sql` — SQL text → optimized logical plan
* :func:`run_sql` — SQL text → :class:`~repro.algebra.ResultSet` with lineage

>>> result = run_sql(db, "SELECT Company, Income FROM ...")
>>> result.with_confidences(db)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.joins import reads_statistics
from ..algebra.optimizer import optimize
from ..algebra.plan import PlanNode, Scan, rebind_scans
from ..algebra.rows import ResultSet
from ..engines import DEFAULT_ENGINE, pick_engine
from ..obs import get_metrics
from ..storage.database import Database
from .ast import (
    AggregateCall,
    Command,
    DerivedTable,
    JoinClause,
    NamedTable,
    OrderItem,
    SelectItem,
    SelectStatement,
    SetStatement,
    Star,
    Statement,
)
from .dml import DmlResult, execute_dml
from .lexer import Token, TokenType, tokenize
from .parser import parse, parse_command
from .planner import Planning, plan_statement

__all__ = [
    "tokenize",
    "Token",
    "TokenType",
    "parse",
    "parse_command",
    "plan_statement",
    "pick_engine",
    "Prepared",
    "prepare",
    "prepare_query",
    "plan_sql",
    "run_sql",
    "execute_sql",
    "DmlResult",
    "execute_dml",
    "Statement",
    "SelectStatement",
    "SetStatement",
    "SelectItem",
    "Star",
    "NamedTable",
    "DerivedTable",
    "JoinClause",
    "OrderItem",
    "AggregateCall",
]


@dataclass(frozen=True)
class Prepared:
    """One statement made ready to run against one database."""

    #: A query's optimized plan, scans bound to the preparing database.
    plan: "PlanNode | None"
    #: The parsed DML/DDL command (a query has a plan instead).
    command: "Command | None" = None
    #: True when the plan cache supplied the plan (nothing was parsed).
    cached: bool = False

    def run(
        self, db: Database, engine: str = DEFAULT_ENGINE
    ) -> "ResultSet | DmlResult":
        """Run the plan on *engine* (the result names it), or apply the
        DML/DDL command to *db*."""
        if self.plan is None:
            return execute_dml(db, self.command)
        prepared = pick_engine(self.plan, engine)
        get_metrics().counter(f"engine.selected.{prepared.label}").inc()
        result = prepared.execute()
        result.engine = prepared.label
        return result


class _Stale(Exception):
    """A cached plan no longer matches the catalog it is asked to read."""


def _bind(template: PlanNode, views: "dict[str, str]", db: Database) -> PlanNode:
    """*template* with its scans reading *db*'s tables, re-checking every
    name the planner resolved: a view still has the definition that was
    expanded and no table shadows it; a table is still there, under the
    identical ``Schema`` object (a recreated table has a new one)."""
    for name, definition in views.items():
        if db.has_table(name) or db.view_definition(name) != definition:
            raise _Stale

    def table_of(scan: Scan):
        if not db.has_table(scan.name):
            raise _Stale
        table = db.table(scan.name)  # a session's quarantine check runs here
        if table.schema is not scan.table_schema:
            raise _Stale
        return table

    return rebind_scans(template, table_of)


def prepare(db: Database, sql: str, optimized: bool = True) -> Prepared:
    """SQL text → a :class:`Prepared` statement for *db*: the one place
    that spells parse → plan → optimize, and so where the plan cache
    (``db.plan_cache``, one per catalog; ``docs/ENGINES.md``) sits.

    The key is the exact text.  A query's entry holds its optimized plan
    table-free; a hit validates it against *db* and binds a copy to
    *db*'s own tables (:func:`_bind`), a mismatch re-plans.  Never cached:
    a text that fails to parse or plan, DML/DDL (nothing to plan), a plan
    whose join order was read off table statistics, ``optimized=False``.
    """
    cache = db.plan_cache if optimized else None
    counter = get_metrics().counter
    entry = cache.get(sql) if cache is not None else None
    if entry is not None:
        try:
            plan = _bind(*entry, db)
        except _Stale:
            counter("sql.plan_cache.invalidations").inc()
            cache.drop(sql)
        else:
            counter("sql.plan_cache.hits").inc()
            return Prepared(plan, cached=True)
    command = parse_command(sql)
    if not isinstance(command, (SelectStatement, SetStatement)):
        return Prepared(None, command)
    planning = Planning(db)
    plan = planning.plan(command)
    if optimized:
        plan = optimize(plan)
        counter("sql.plan_cache.misses").inc()
        if not reads_statistics(plan):
            template = rebind_scans(plan, lambda scan: None)
            cache.put(sql, (template, planning.views))
    return Prepared(plan)


def prepare_query(db: Database, sql: str, optimized: bool = True) -> Prepared:
    """:func:`prepare` for a text that must be a query."""
    prepared = prepare(db, sql, optimized)
    if prepared.plan is None:
        parse(sql)  # not a query: fail as the query parser fails it
    return prepared


def plan_sql(db: Database, sql: str, optimized: bool = True) -> PlanNode:
    """Parse and plan SQL text against *db*."""
    return prepare_query(db, sql, optimized).plan


def run_sql(
    db: Database,
    sql: str,
    optimized: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> ResultSet:
    """Parse, plan, and execute SQL text against *db*.

    *engine* is ``"columnar"`` (the engine) or ``"native"`` (the
    row-at-a-time reference).  Results are identical either way — the
    engine that ran is recorded on ``result.engine``.
    """
    return prepare_query(db, sql, optimized).run(db, engine)


def execute_sql(
    db: Database,
    sql: str,
    optimized: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> "ResultSet | DmlResult":
    """Parse and run any supported SQL command: queries return a
    :class:`~repro.algebra.ResultSet`, DML/DDL a :class:`DmlResult`."""
    return prepare(db, sql, optimized).run(db, engine)
