"""The columnar engine: vectorized, batch-at-a-time plan execution.

Walks the logical relation tree bottom-up like the native executor, but
every operator consumes and produces a :class:`ColumnBatch` instead of a
row list, dispatching to :mod:`~repro.engines.columnar.kernels` — one
entry per plan node type, so the engine executes every plan the planner
can emit.  An entry is a vectorized kernel where the operator has a
columnar or deferred form; a cross product, a theta join, a set
operation and an ``IN`` over a materialised input run the native row
operator over the materialised input batches instead.  Observability
mirrors the native engine one level down: each operator records a
``columnar.<operator>`` span and
``executor.columnar.<operator>.{calls,rows_emitted,seconds}`` metrics, so
per-engine operator costs are separable in the metrics snapshot and
OpenMetrics exposition.
"""

from __future__ import annotations

import logging
import time
from typing import Callable

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
from ...algebra.rows import ResultSet
from ...errors import PlanError
from ...obs import TIMING_BUCKETS, get_metrics, get_tracer
from .batch import ColumnBatch
from . import kernels

__all__ = ["execute", "run_batch"]

logger = logging.getLogger(__name__)

#: Each kernel takes the node plus one input batch per child, in order.
_KERNELS: dict[type, Callable[..., ColumnBatch]] = {
    Scan: kernels.scan_batch,
    Alias: kernels.alias_batch,
    Filter: kernels.filter_batch,
    Project: kernels.project_batch,
    Join: kernels.join_batch,
    SemiJoin: kernels.semi_join_batch,
    SetOperation: kernels.set_operation_batch,
    Aggregate: kernels.aggregate_batch,
    Sort: kernels.sort_batch,
    Limit: kernels.limit_batch,
}


def execute(plan: PlanNode) -> ResultSet:
    """Run *plan* on the columnar engine; materialize rows at the root."""
    return run_batch(plan).to_result_set()


def run_batch(node: PlanNode) -> ColumnBatch:
    """Run *node*, result left columnar (DML reads tuple ids off it)."""
    operator = type(node).__name__
    kernel = _KERNELS.get(type(node))
    if kernel is None:
        raise PlanError(f"no columnar kernel for plan node {operator}")
    tracer = get_tracer()
    started = time.perf_counter()
    if tracer.enabled:
        with tracer.span(f"columnar.{operator.lower()}") as span:
            batch = kernel(node, *map(run_batch, node.children))
            span.set_attribute("rows_emitted", batch.length)
    else:
        batch = kernel(node, *map(run_batch, node.children))
    elapsed = time.perf_counter() - started

    metrics = get_metrics()
    prefix = f"executor.columnar.{operator.lower()}"
    metrics.counter(f"{prefix}.calls").inc()
    metrics.counter(f"{prefix}.rows_emitted").inc(batch.length)
    metrics.histogram(f"{prefix}.seconds", TIMING_BUCKETS).observe(elapsed)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "columnar %s emitted %d row(s) in %.6fs",
            operator,
            batch.length,
            elapsed,
        )
    return batch
