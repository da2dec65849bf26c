"""SQL front end: lexer, parser, and planner.

High-level helpers:

* :func:`parse_sql` — SQL text → AST
* :func:`plan_sql` — SQL text → optimized logical plan
* :func:`run_sql` — SQL text → :class:`~repro.algebra.ResultSet` with lineage

>>> result = run_sql(db, "SELECT Company, Income FROM ...")
>>> result.with_confidences(db)
"""

from __future__ import annotations

from ..algebra.optimizer import optimize
from ..algebra.plan import PlanNode
from ..algebra.rows import ResultSet
from ..engines import DEFAULT_ENGINE, pick_engine
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
from .planner import plan_statement

__all__ = [
    "tokenize",
    "Token",
    "TokenType",
    "parse",
    "parse_command",
    "parse_sql",
    "plan_statement",
    "pick_engine",
    "plan_sql",
    "run_sql",
    "execute_command",
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


def parse_sql(sql: str) -> Statement:
    """Parse SQL text into an AST."""
    return parse(sql)


def plan_sql(db: Database, sql: str, optimized: bool = True) -> PlanNode:
    """Parse and plan SQL text against *db*."""
    plan = plan_statement(db, parse(sql))
    return optimize(plan) if optimized else plan


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
    return _run_plan(plan_sql(db, sql, optimized), engine)


def _run_plan(plan: PlanNode, engine: str) -> ResultSet:
    from ..obs import get_metrics

    prepared = pick_engine(plan, engine)
    get_metrics().counter(f"engine.selected.{prepared.label}").inc()
    result = prepared.execute()
    result.engine = prepared.label
    return result


def execute_command(
    db: Database,
    command: Command,
    optimized: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> "ResultSet | DmlResult":
    """Run one parsed command (from :func:`parse_command`): queries return
    a :class:`~repro.algebra.ResultSet`, DML/DDL a :class:`DmlResult`."""
    if isinstance(command, (SelectStatement, SetStatement)):
        plan = plan_statement(db, command)
        if optimized:
            plan = optimize(plan)
        return _run_plan(plan, engine)
    return execute_dml(db, command)


def execute_sql(
    db: Database,
    sql: str,
    optimized: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> "ResultSet | DmlResult":
    """Parse and run any supported SQL command."""
    return execute_command(db, parse_command(sql), optimized, engine)
