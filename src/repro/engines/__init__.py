"""Execution over the logical relation tree: one engine, one reference.

``columnar`` — vectorized batch execution (:mod:`repro.engines.columnar`)
— runs every plan.  ``native`` — the row-at-a-time executor
(:mod:`repro.algebra.executor`) — stays as the reference the differential
tests and the benchmark's oracle compare against: both must produce
identical rows, structurally identical lineage, bit-identical confidences
and identical errors.  See ``docs/ENGINES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.executor import execute as execute_native
from ..algebra.plan import PlanNode
from ..algebra.rows import ResultSet
from ..errors import PlanError
from .columnar import execute as execute_columnar

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_MODES",
    "PreparedPlan",
    "check_engine",
    "pick_engine",
]

_EXECUTORS = {"columnar": execute_columnar, "native": execute_native}

#: Valid values for ``--engine`` / ``run_sql(engine=...)``.
ENGINE_MODES = tuple(_EXECUTORS)
DEFAULT_ENGINE = "columnar"


def check_engine(mode: str) -> str:
    """Return *mode* if it names an engine, else raise :class:`PlanError`."""
    if mode not in _EXECUTORS:
        raise PlanError(
            f"unknown engine {mode!r} (expected one of {ENGINE_MODES})"
        )
    return mode


@dataclass(frozen=True)
class PreparedPlan:
    """A plan bound to the engine (*label*) that will execute it."""

    plan: PlanNode
    label: str

    def execute(self) -> ResultSet:
        return _EXECUTORS[self.label](self.plan)


def pick_engine(plan: PlanNode, mode: str = DEFAULT_ENGINE) -> PreparedPlan:
    """Bind *plan* to the engine named *mode* (validated)."""
    return PreparedPlan(plan, check_engine(mode))
