"""Data quality improvement (the Figure-1 component that *acts* on a plan).

The paper's improvement actions are external — paying a verification
service, sending auditors, acquiring certified reports.  The library models
them behind :class:`ImprovementService`; the bundled
:class:`SimulatedImprovementService` charges the cost models and writes the
new confidences back to the database, which is exactly the contract a real
integration would implement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..errors import IncrementError
from ..storage.database import Database
from ..storage.tuples import TupleId
from .problem import IncrementPlan

__all__ = [
    "ImprovementAction",
    "ImprovementReceipt",
    "ImprovementService",
    "SimulatedImprovementService",
]

_EPS = 1e-9


@dataclass(frozen=True)
class ImprovementAction:
    """One tuple's confidence change and what it cost."""

    tid: TupleId
    old_confidence: float
    new_confidence: float
    cost: float


@dataclass
class ImprovementReceipt:
    """Record of an applied increment plan."""

    actions: list[ImprovementAction]
    total_cost: float

    @property
    def tuples_improved(self) -> int:
        return len(self.actions)


class ImprovementService(Protocol):
    """Anything that can realise an increment plan against a database."""

    def apply(self, db: Database, plan: IncrementPlan) -> ImprovementReceipt:
        """Raise stored confidences to the plan's targets; returns a receipt."""
        ...  # pragma: no cover - protocol


@dataclass
class SimulatedImprovementService:
    """Improvement backend that simulates perfect verification actions.

    Each target is applied exactly, the cost charged is the cost model's
    increment cost from the confidence *db* resolves, and a target at or
    below it is a no-op.  A plan that carries its read set
    (:attr:`~repro.increment.problem.IncrementPlan.read`, stamped by the
    pipeline) is written only while the database still holds every
    confidence in it — else :class:`~repro.errors.WriteBackConflictError`
    — so it costs what was quoted; a plan without one is charged from
    what is stored.

    ``budget`` (optional) caps cumulative spending across calls; exceeding
    it raises ``ImprovementRejectedError`` before any
    tuple is touched.
    """

    budget: float | None = None
    spent: float = 0.0
    receipts: list[ImprovementReceipt] = field(default_factory=list)

    def quote(self, db: Database, plan: IncrementPlan) -> float:
        """Cost of applying *plan* to the database's current state."""
        total = 0.0
        for tid, target in plan.targets.items():
            stored = db.resolve(tid)
            if target > stored.confidence + _EPS:
                total += stored.cost_model.increment_cost(
                    stored.confidence, target
                )
        return total

    def apply(self, db: Database, plan: IncrementPlan) -> ImprovementReceipt:
        """Apply *plan*; all-or-nothing against the budget."""
        for tid, target in plan.targets.items():
            if not 0.0 <= target <= 1.0:
                raise IncrementError(
                    f"plan target {target} for {tid} outside [0, 1]"
                )
        cost = self.quote(db, plan)
        if self.budget is not None and self.spent + cost > self.budget + _EPS:
            raise IncrementError(
                f"plan costs {cost:.2f} but only "
                f"{self.budget - self.spent:.2f} of the budget remains",
                code="ImprovementRejectedError",
            )
        actions: list[ImprovementAction] = []
        for tid in sorted(plan.targets):
            target = plan.targets[tid]
            stored = db.resolve(tid)
            if target <= stored.confidence + _EPS:
                continue
            action_cost = stored.cost_model.increment_cost(
                stored.confidence, target
            )
            actions.append(
                ImprovementAction(tid, stored.confidence, target, action_cost)
            )
        # Validate-then-write so a bad target cannot leave a partial apply.
        updates = {action.tid: action.new_confidence for action in actions}
        if plan.read:  # refused if what the plan read has moved since
            db.apply_confidences(updates, read=plan.read)
        else:
            db.apply_confidences(updates)
        receipt = ImprovementReceipt(actions, cost)
        self.spent += cost
        self.receipts.append(receipt)
        return receipt
