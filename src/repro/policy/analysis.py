"""Policy impact analysis.

Before deploying or tightening a confidence policy, an administrator wants
to know *how much data it will withhold* and *what it would cost to comply*.
This module answers both:

* :func:`table_confidence_profile` — histogram + quantiles of a table's
  stored confidences.
* :func:`policy_impact` — for one (subject, purpose) pair and a query:
  released/withheld fractions now, and the increment cost + lead time to
  reach a target fraction.
* :func:`threshold_sweep` — released fraction of a result set as a
  function of the threshold (the curve behind "where should β sit?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..algebra.rows import ResultSet
from ..errors import InfeasibleIncrementError, ReproError
from ..storage.table import Table
from .enforcement import PolicyEvaluator
from .store import PolicyStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.database import Database

__all__ = [
    "ConfidenceProfile",
    "table_confidence_profile",
    "threshold_sweep",
    "PolicyImpact",
    "policy_impact",
]


@dataclass(frozen=True)
class ConfidenceProfile:
    """Summary statistics of a collection of confidence values."""

    count: int
    mean: float
    minimum: float
    maximum: float
    quantiles: tuple[float, float, float]  # p25, p50, p75
    histogram: tuple[int, ...]  # 10 equal-width bins over [0, 1]


def _profile(values: Sequence[float]) -> ConfidenceProfile:
    if not values:
        return ConfidenceProfile(0, 0.0, 0.0, 0.0, (0.0, 0.0, 0.0), (0,) * 10)
    ordered = sorted(values)
    count = len(ordered)

    def quantile(q: float) -> float:
        position = min(count - 1, max(0, round(q * (count - 1))))
        return ordered[position]

    histogram = [0] * 10
    for value in ordered:
        histogram[min(int(value * 10), 9)] += 1
    return ConfidenceProfile(
        count=count,
        mean=sum(ordered) / count,
        minimum=ordered[0],
        maximum=ordered[-1],
        quantiles=(quantile(0.25), quantile(0.5), quantile(0.75)),
        histogram=tuple(histogram),
    )


def table_confidence_profile(table: Table) -> ConfidenceProfile:
    """Profile of the stored confidences of *table*'s tuples."""
    return _profile([row.confidence for row in table.scan()])


def threshold_sweep(
    result: ResultSet,
    source: "Database",
    thresholds: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """``(threshold, released fraction)`` points for a result set."""
    if thresholds is None:
        thresholds = [i / 20 for i in range(20)]
    for threshold in thresholds:
        if not 0.0 <= threshold <= 1.0:
            raise ReproError(
                f"threshold {threshold} outside [0, 1]", code="PolicyError"
            )
    confidences = result.confidences(source)
    total = len(confidences)
    points = []
    for threshold in thresholds:
        if total == 0:
            points.append((threshold, 1.0))
            continue
        released = sum(1 for value in confidences if value > threshold)
        points.append((threshold, released / total))
    return points


@dataclass(frozen=True)
class PolicyImpact:
    """What one policy does to one query, and what compliance would cost."""

    subject: str
    purpose: str
    threshold: float
    total_results: int
    released: int
    withheld: int
    compliance_cost: float | None  # None when infeasible / nothing withheld
    compliance_tuples: int

    @property
    def released_fraction(self) -> float:
        if self.total_results == 0:
            return 1.0
        return self.released / self.total_results


def policy_impact(
    db: "Database",
    policies: PolicyStore,
    result: ResultSet,
    subject: str,
    purpose: str,
    target_fraction: float = 1.0,
    solver=None,
) -> PolicyImpact:
    """Measure a policy's effect on *result* and price full compliance.

    ``solver`` defaults to the greedy algorithm; pass any
    ``IncrementProblem -> IncrementPlan`` callable to change it.
    """
    from ..increment import IncrementProblem, solve_greedy

    threshold = policies.threshold_for(subject, purpose)
    outcome = PolicyEvaluator.apply_threshold(result, db, threshold)
    shortfall = outcome.shortfall(target_fraction)
    cost: float | None = 0.0
    tuples_touched = 0
    if shortfall > 0 and threshold < 1.0:
        liftable = [
            row.lineage
            for row, _confidence in outcome.withheld
            if row.lineage.monotone
        ]
        if shortfall > len(liftable):
            cost = None
        else:
            problem = IncrementProblem.from_results(
                liftable,
                db,
                threshold=min(1.0, threshold + 1e-6),
                required_count=shortfall,
            )
            try:
                problem.check_feasible()
                plan = (solver or solve_greedy)(problem)
                cost = plan.total_cost
                tuples_touched = len(plan.targets)
            except InfeasibleIncrementError:
                cost = None
    elif shortfall > 0:
        cost = None
    return PolicyImpact(
        subject=subject,
        purpose=purpose,
        threshold=threshold,
        total_results=outcome.total,
        released=len(outcome.released),
        withheld=len(outcome.withheld),
        compliance_cost=cost,
        compliance_tuples=tuples_touched,
    )
