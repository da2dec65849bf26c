"""Execution of DML / DDL commands against a database.

Queries go through the planner/executor; the commands here mutate storage
directly:

* ``CREATE TABLE t (c TEXT NOT NULL, …)`` / ``DROP TABLE t``
* ``INSERT INTO t [(cols)] VALUES (…), … [WITH CONFIDENCE p]`` — the
  confidence clause is this dialect's annotation hook (element 1): new
  facts enter with an explicit trustworthiness instead of a blind 1.0.
* ``UPDATE t SET c = e, … [WHERE p] [WITH CONFIDENCE p]`` — corrections
  keep the tuple's identity (lineage over the id still refers to it); the
  optional confidence clause re-scores the corrected fact.
* ``DELETE FROM t [WHERE p]``

Value expressions in INSERT are constants (no row in scope).  The rows an
UPDATE/DELETE touches are what ``Filter(Scan(t), where)`` selects on the
columnar engine — the SELECT's own predicate path — and every statement
is one storage call (``insert_rows`` / ``update_rows`` / ``delete_rows``):
validated whole, applied whole, journaled whole.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..algebra.expressions import Expression
from ..algebra.plan import Filter, Project, ProjectItem, Scan
from ..engines.columnar.batch import ColumnBatch
from ..engines.columnar.engine import run_batch
from ..errors import BindError, PlanError, ReproError, SchemaError
from ..obs import TIMING_BUCKETS, get_metrics
from ..storage.database import Database
from ..storage.schema import Column, Schema
from ..storage.types import BOOLEAN, INTEGER, REAL, TEXT, DataType
from ..storage.tuples import TupleId
from .ast import (
    CreateTableStatement,
    CreateViewStatement,
    DeleteStatement,
    DropTableStatement,
    DropViewStatement,
    InsertStatement,
    UpdateStatement,
)
from .planner import _reject_nested_subqueries

__all__ = ["DmlResult", "execute_dml"]

_TYPE_NAMES: dict[str, DataType] = {
    "TEXT": TEXT,
    "STRING": TEXT,
    "VARCHAR": TEXT,
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "REAL": REAL,
    "FLOAT": REAL,
    "DOUBLE": REAL,
    "BOOL": BOOLEAN,
    "BOOLEAN": BOOLEAN,
}

_EMPTY_SCHEMA = Schema([Column("__none__", TEXT)])


@dataclass(frozen=True)
class DmlResult:
    """Outcome of a non-query command."""

    command: str
    rows_affected: int
    tuple_ids: tuple[TupleId, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - display only
        return f"{self.command}: {self.rows_affected} row(s)"


def execute_dml(db: Database, command) -> DmlResult:
    """Apply one DML/DDL *command* to *db*.

    Every statement lands one observation in the
    ``dml.statement.latency_seconds`` histogram (fixed SLO-oriented
    boundaries), so the DML path has true p50/p95/p99 in the metrics
    exposition alongside the ask and solver paths.
    """
    started = time.monotonic_ns()
    try:
        return _dispatch_dml(db, command)
    finally:
        get_metrics().histogram(
            "dml.statement.latency_seconds", TIMING_BUCKETS
        ).observe((time.monotonic_ns() - started) / 1e9)


def _dispatch_dml(db: Database, command) -> DmlResult:
    if isinstance(command, CreateTableStatement):
        return _create_table(db, command)
    if isinstance(command, DropTableStatement):
        db.drop_table(command.name)
        return DmlResult("DROP TABLE", 0)
    if isinstance(command, CreateViewStatement):
        # The catalog stores the text; it registers and journals the view
        # only once the definition has planned against it.
        from .planner import plan_statement

        db.create_view(
            command.name,
            command.definition_sql,
            validate=lambda: plan_statement(db, command.query),
        )
        return DmlResult("CREATE VIEW", 0)
    if isinstance(command, DropViewStatement):
        db.drop_view(command.name)
        return DmlResult("DROP VIEW", 0)
    if isinstance(command, InsertStatement):
        return _insert(db, command)
    if isinstance(command, UpdateStatement):
        return _update(db, command)
    if isinstance(command, DeleteStatement):
        return _delete(db, command)
    raise PlanError(f"not a DML command: {type(command).__name__}")


def _create_table(db: Database, command: CreateTableStatement) -> DmlResult:
    columns = []
    for definition in command.columns:
        dtype = _TYPE_NAMES.get(definition.type_name.upper())
        if dtype is None:
            raise ReproError(
                f"unknown column type {definition.type_name!r}; supported: "
                f"{', '.join(sorted(set(_TYPE_NAMES)))}",
                code="SqlError",
            )
        columns.append(Column(definition.name, dtype, nullable=definition.nullable))
    db.create_table(command.name, Schema(columns))
    return DmlResult("CREATE TABLE", 0)


def _constant(expression: Expression, context: str):
    """Evaluate a row-independent expression (INSERT values, confidence)."""
    try:
        bound = expression.bind(_EMPTY_SCHEMA)
    except (BindError, SchemaError) as error:
        raise BindError(
            f"{context} must be a constant expression: {error}"
        ) from error
    return bound.evaluate(("__none__",))


def _confidence_value(expression: Expression | None) -> float | None:
    if expression is None:
        return None
    value = _constant(expression, "WITH CONFIDENCE")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ReproError(
            f"WITH CONFIDENCE expects a number, got {value!r}", code="SqlError"
        )
    if not 0.0 <= float(value) <= 1.0:
        raise ReproError(f"confidence {value} outside [0, 1]", code="SqlError")
    return float(value)


def _insert(db: Database, command: InsertStatement) -> DmlResult:
    table = db.table(command.table)
    schema = table.schema
    if command.columns is None:
        positions = list(range(len(schema)))
    else:
        positions = [schema.index_of(name) for name in command.columns]
        if len(set(positions)) != len(positions):
            raise ReproError("duplicate column in INSERT column list", code="SqlError")
    confidence = _confidence_value(command.confidence)
    rows = []
    for row in command.rows:
        if len(row) != len(positions):
            raise ReproError(
                f"INSERT row has {len(row)} values for "
                f"{len(positions)} columns",
                code="SqlError",
            )
        values: list = [None] * len(schema)
        for position, expression in zip(positions, row):
            values[position] = _constant(expression, "INSERT value")
        rows.append(values)
    # One storage call and one WAL record per statement, whatever the row
    # count; a row the schema rejects leaves every row as it was.
    tids = table.insert_rows(rows, 1.0 if confidence is None else confidence)
    return DmlResult("INSERT", len(tids), tuple(tids))


def _selected(
    kind: str, table, where: Expression | None, items=()
) -> ColumnBatch:
    """The rows of *table* a *kind* statement's WHERE selects — what a
    SELECT's own ``Filter`` keeps, on the engine, so the clause binds,
    type-checks, evaluates and fails as it does in a query — projected to
    *items*.  A subquery is refused first: a SELECT's planner rewrites
    ``IN (SELECT …)`` into a semi-join before anything binds it, and DML
    has no such rewrite."""
    refusal = (
        f"{kind}: subqueries are not supported in DML statements "
        "(IN (SELECT ...) becomes a semi-join only in a SELECT's WHERE)"
    )
    for expression in (where, *(item.expression for item in items)):
        if expression is not None:
            _reject_nested_subqueries(expression, refusal)
    plan = Scan(table)
    if where is not None:
        plan = Filter(plan, where)
    if items:
        plan = Project(plan, items)
    return run_batch(plan)


def _update(db: Database, command: UpdateStatement) -> DmlResult:
    table = db.table(command.table)
    positions = []
    for name, _ in command.assignments:
        position = table.schema.index_of(name)
        if position in positions:
            raise ReproError(f"column {name!r} assigned twice", code="SqlError")
        positions.append(position)
    confidence = _confidence_value(command.confidence)
    # The SET expressions ride the WHERE's batch as its projection: one
    # value column per assigned column, still carrying the tuple ids.
    batch = _selected(
        "UPDATE",
        table,
        command.where,
        [ProjectItem(expression, name) for name, expression in command.assignments],
    )
    tids = tuple(batch.tids())
    table.update_rows(
        [tid.ordinal for tid in tids], positions, batch.columns, confidence
    )
    return DmlResult("UPDATE", len(tids), tids)


def _delete(db: Database, command: DeleteStatement) -> DmlResult:
    table = db.table(command.table)
    tids = tuple(_selected("DELETE", table, command.where).tids())
    table.delete_rows([tid.ordinal for tid in tids])
    return DmlResult("DELETE", len(tids), tids)
