"""The confidence-increment optimization problem (paper §3.2).

Given intermediate results Λinter = {λ1…λn} whose confidence is below the
policy threshold β, base tuples Λ0 with current confidences and cost models,
and a required number of results to lift above β, find per-tuple target
confidences minimizing total cost:

.. math::

    \\min \\sum_{λ^0_x ∈ Λ^0} c_{λ^0_x}(p^*_{λ^0_x} − p_{λ^0_x})
    \\quad \\text{s.t.} \\quad |Λ| ≥ (θ−θ')·n, \\;
    F_{λ_i}(p^*) ≥ β \\; ∀ λ_i ∈ Λ, \\;
    p^*_{λ^0} ∈ [p_{λ^0}, 1]

The problem is NP-hard (nonlinear constrained optimization).
:class:`IncrementProblem` is the shared, immutable description consumed by
all four solvers; :class:`SearchState` is the mutable assignment they
explore it through, with confidences, satisfied counts and cost kept
current move by move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..cost import CostModel
from ..errors import IncrementError, InfeasibleIncrementError
from ..lineage.circuit import CircuitPool
from ..lineage.confidence import ConfidenceFunction
from ..lineage.formula import And, Lineage, Not, Or
from ..storage.tuples import TupleId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.database import Database

__all__ = [
    "BaseTupleState",
    "IncrementProblem",
    "IncrementPlan",
    "SearchState",
    "SolverStats",
    "ceil_required",
]

_EPS = 1e-9

#: Undo token returned by :meth:`SearchState.set_value`: the affected
#: results' ``(index, old_confidence)`` pairs, so undoing a move is a
#: write-back that never re-evaluates anything.
UndoToken = list[tuple[int, float]]


def _has_negation(formula: Lineage) -> bool:
    if isinstance(formula, Not):
        return True
    if isinstance(formula, (And, Or)):
        return any(_has_negation(child) for child in formula.children)
    return False


@dataclass(frozen=True)
class BaseTupleState:
    """One decision variable: a base tuple's current state and cost model."""

    tid: TupleId
    initial: float
    cost_model: CostModel

    @property
    def maximum(self) -> float:
        """The highest confidence this tuple can be raised to."""
        return max(self.cost_model.max_confidence, self.initial)

    def cost_to(self, target: float) -> float:
        """Cost of raising from the initial confidence to *target*."""
        if target <= self.initial + _EPS:
            return 0.0
        return self.cost_model.increment_cost(self.initial, min(target, 1.0))

    def levels(self, delta: float) -> list[float]:
        """The value grid {initial, initial+δ, …} capped at the maximum.

        Always includes the maximum itself so "raise to the cap" is
        expressible even when the cap is not δ-aligned.
        """
        if delta <= 0:
            raise IncrementError(f"delta must be positive, got {delta}")
        values = [self.initial]
        current = self.initial
        while current + delta < self.maximum - _EPS:
            current = min(round(current + delta, 12), self.maximum)
            values.append(current)
        if self.maximum > values[-1] + _EPS:
            values.append(self.maximum)
        return values


class IncrementProblem:
    """Immutable description of one confidence-increment instance.

    Parameters
    ----------
    results:
        Confidence functions of the intermediate results that are *below*
        the threshold (Λinter).  Lineage must be negation-free — the
        algorithms rely on confidence being monotone in every base tuple.
    tuples:
        Search-state for every base tuple any result depends on (Λ0).
    threshold:
        β — results must reach a confidence strictly above it.
    required_count:
        How many of *results* must reach the threshold: ``(θ−θ')·n``.
    delta:
        δ — the confidence-increment granularity (Table 4 default 0.1).
    requirement_groups:
        Optional multi-query extension (§4 end): a list of
        ``(result_indexes, count)`` requirements, one per query, each
        demanding *count* of its *result_indexes* to clear the threshold.
        When given, *required_count* is ignored and every group must be met
        simultaneously; the default is the single group covering all
        results.
    """

    def __init__(
        self,
        results: Sequence[ConfidenceFunction],
        tuples: Mapping[TupleId, BaseTupleState],
        threshold: float,
        required_count: int = 0,
        delta: float = 0.1,
        requirement_groups: (
            Sequence[tuple[Sequence[int], int]] | None
        ) = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise IncrementError(f"threshold {threshold} outside [0, 1]")
        if delta <= 0.0 or delta > 1.0:
            raise IncrementError(f"delta must be in (0, 1], got {delta}")
        if required_count < 0:
            raise IncrementError(
                f"required_count must be non-negative, got {required_count}"
            )
        if requirement_groups is None:
            requirement_groups = [(range(len(results)), required_count)]
        self.requirement_groups: list[tuple[tuple[int, ...], int]] = []
        for members, count in requirement_groups:
            members = tuple(sorted(set(members)))
            if members and not 0 <= members[0] <= members[-1] < len(results):
                raise IncrementError(
                    f"requirement group indexes {members[:5]}... out of range"
                )
            if count < 0:
                raise IncrementError(
                    f"requirement count must be non-negative, got {count}"
                )
            if count > len(members):
                raise InfeasibleIncrementError(
                    f"cannot satisfy {count} results out of "
                    f"{len(members)} candidates"
                )
            self.requirement_groups.append((members, int(count)))
        self.results = list(results)
        for result in self.results:
            if _has_negation(result.formula):
                raise IncrementError(
                    f"result {result.label or result} has negated lineage; "
                    f"confidence increment requires monotone lineage"
                )
        needed = set()
        for result in self.results:
            needed.update(result.variables)
        missing = needed - set(tuples)
        if missing:
            raise IncrementError(
                f"no base-tuple state for {sorted(map(str, missing))[:5]}"
            )
        self.tuples: dict[TupleId, BaseTupleState] = {
            tid: tuples[tid] for tid in sorted(needed)
        }
        self.threshold = float(threshold)
        # Aggregate requirement (display / allocation); exact satisfaction
        # is per requirement group.
        self.required_count = sum(
            count for _members, count in self.requirement_groups
        )
        self.delta = float(delta)
        # var -> indexes of results that depend on it
        self.results_by_tuple: dict[TupleId, list[int]] = {
            tid: [] for tid in self.tuples
        }
        for index, result in enumerate(self.results):
            for tid in result.variables:
                self.results_by_tuple[tid].append(index)
        # result index -> requirement-group ids it belongs to
        self.groups_by_result: list[list[int]] = [
            [] for _ in self.results
        ]
        for group_id, (members, _count) in enumerate(self.requirement_groups):
            for index in members:
                self.groups_by_result[index].append(group_id)

    @property
    def is_multi_requirement(self) -> bool:
        """Whether this is a multi-query instance (several groups)."""
        return len(self.requirement_groups) > 1

    def requirements_met(self, flags: Sequence[bool]) -> bool:
        """Whether per-result satisfaction *flags* meet every group."""
        for members, count in self.requirement_groups:
            if count == 0:
                continue
            met = sum(1 for index in members if flags[index])
            if met < count:
                return False
        return True

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_results(
        cls,
        lineages: Sequence[Lineage],
        db: "Database",
        threshold: float,
        required_count: int,
        delta: float = 0.1,
        labels: Sequence[str] | None = None,
    ) -> "IncrementProblem":
        """Build a problem from raw lineages, reading current confidences
        and cost models from the database."""
        pool = CircuitPool()  # one pool for the whole query's results
        functions = [
            ConfidenceFunction(
                lineage, labels[index] if labels else f"λ{index}", pool=pool
            )
            for index, lineage in enumerate(lineages)
        ]
        tuples: dict[TupleId, BaseTupleState] = {}
        for function in functions:
            for tid in function.variables:
                if tid not in tuples:
                    stored = db.resolve(tid)
                    tuples[tid] = BaseTupleState(
                        tid, stored.confidence, stored.cost_model
                    )
        return cls(functions, tuples, threshold, required_count, delta)

    # -- basic queries -------------------------------------------------------

    def initial_assignment(self) -> dict[TupleId, float]:
        """Every tuple at its current (stored) confidence."""
        return {tid: state.initial for tid, state in self.tuples.items()}

    def maximal_assignment(self) -> dict[TupleId, float]:
        """Every tuple at its maximum reachable confidence."""
        return {tid: state.maximum for tid, state in self.tuples.items()}

    def satisfied(self, confidence: float) -> bool:
        """Whether one result's confidence clears the threshold.

        The paper states both ``F ≥ β`` (§3.2) and "higher than β"
        (Definition 1); we use ``≥ β`` for increment targets so a tuple can
        be lifted exactly to the threshold, with a tolerance for float
        drift.
        """
        return confidence >= self.threshold - _EPS

    def satisfied_count(self, assignment: Mapping[TupleId, float]) -> int:
        """How many results clear the threshold under *assignment*."""
        return sum(
            1
            for result in self.results
            if self.satisfied(result.evaluate(assignment))
        )

    def cost_of(self, assignment: Mapping[TupleId, float]) -> float:
        """Total increment cost of moving from initial to *assignment*."""
        return sum(
            self.tuples[tid].cost_to(value)
            for tid, value in assignment.items()
            if tid in self.tuples
        )

    def _flags(self, assignment: Mapping[TupleId, float]) -> list[bool]:
        return [
            self.satisfied(result.evaluate(assignment))
            for result in self.results
        ]

    def is_trivial(self) -> bool:
        """Already satisfied without any increment."""
        return self.requirements_met(self._flags(self.initial_assignment()))

    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleIncrementError` if even raising every
        tuple to its maximum cannot satisfy every requirement."""
        flags = self._flags(self.maximal_assignment())
        for group_id, (members, count) in enumerate(self.requirement_groups):
            best = sum(1 for index in members if flags[index])
            if best < count:
                raise InfeasibleIncrementError(
                    f"requirement group {group_id}: only {best} of "
                    f"{len(members)} results can reach threshold "
                    f"{self.threshold}; {count} required"
                )

    def clamped_to_achievable(self) -> "IncrementProblem":
        """A copy whose group counts are clamped to what is achievable at
        maximal confidence (so a hard group cannot make a solve infeasible;
        used by the D&C group loop)."""
        flags = self._flags(self.maximal_assignment())
        clamped = []
        changed = False
        for members, count in self.requirement_groups:
            best = sum(1 for index in members if flags[index])
            if best < count:
                changed = True
                count = best
            clamped.append((members, count))
        if not changed:
            return self
        return IncrementProblem(
            self.results,
            self.tuples,
            self.threshold,
            delta=self.delta,
            requirement_groups=clamped,
        )

    def subproblem(
        self,
        result_indexes: Iterable[int],
        required_count: int | None = None,
    ) -> "IncrementProblem":
        """The restriction to a subset of results (used by D&C groups).

        With a single requirement group, *required_count* sets the
        sub-problem's requirement directly.  For multi-query problems the
        original groups are intersected with the subset, each keeping a
        proportional share of its count (*required_count* is ignored).
        """
        indexes = sorted(set(result_indexes))
        position = {original: new for new, original in enumerate(indexes)}
        results = [self.results[index] for index in indexes]
        if not self.is_multi_requirement:
            if required_count is None:
                members, count = self.requirement_groups[0]
                kept = [index for index in members if index in position]
                required_count = min(len(kept), count)
            return IncrementProblem(
                results, self.tuples, self.threshold, required_count, self.delta
            )
        mapped: list[tuple[list[int], int]] = []
        for members, count in self.requirement_groups:
            kept = [position[index] for index in members if index in position]
            if not kept:
                continue
            share = math.ceil(count * len(kept) / len(members) - 1e-9)
            mapped.append((kept, min(len(kept), share)))
        return IncrementProblem(
            results,
            self.tuples,
            self.threshold,
            delta=self.delta,
            requirement_groups=mapped,
        )

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"IncrementProblem(results={len(self.results)}, "
            f"tuples={len(self.tuples)}, beta={self.threshold}, "
            f"required={self.required_count}, delta={self.delta})"
        )


@dataclass
class SolverStats:
    """Counters reported by every solver for benchmarking and tests.

    This dataclass is the hot-path accumulator *and* the backward-compatible
    façade over the observability layer: each solver increments these plain
    attributes while searching, and :func:`repro.obs.solver_run` publishes
    every non-zero counter as a ``solver.<algorithm>.<field>`` metric (plus
    an ``elapsed_seconds`` histogram observation) once per solve.
    """

    nodes_explored: int = 0
    nodes_pruned_bound: int = 0
    #: H1 is a variable-*ordering* heuristic — it prunes nothing directly
    #: but concentrates the bound prunes; this flags the solves it shaped.
    h1_applied: int = 0
    nodes_pruned_h2: int = 0
    nodes_pruned_h3: int = 0
    nodes_pruned_h4: int = 0
    gain_evaluations: int = 0
    phase2_reductions: int = 0
    groups: int = 0
    swap_moves: int = 0
    elapsed_seconds: float = 0.0
    completed: bool = True
    #: True when a runtime :class:`~repro.increment.runtime.Budget` ran out
    #: and the returned plan is the best-so-far incumbent, not the solver's
    #: normal answer.
    budget_exhausted: bool = False


@dataclass
class IncrementPlan:
    """A solver's answer: target confidences and their total cost."""

    targets: dict[TupleId, float]
    total_cost: float
    satisfied_results: tuple[int, ...]
    algorithm: str
    stats: SolverStats = field(default_factory=SolverStats)
    #: Stamped by the degradation chain when this plan came from a
    #: fallback hop or an exhausted-budget incumbent rather than the
    #: primary solver running to completion.  First-class (not a span
    #: attribute) so the serving layer sees it with tracing disabled.
    degraded: bool = False

    @property
    def changed(self) -> dict[TupleId, float]:
        """Alias for :attr:`targets` (only changed tuples are recorded)."""
        return self.targets

    def describe(self, problem: IncrementProblem | None = None) -> str:
        """Human-readable summary (the "cost quote" shown to the user)."""
        lines = [
            f"increment plan ({self.algorithm}): cost={self.total_cost:.2f}, "
            f"satisfies {len(self.satisfied_results)} result(s)"
        ]
        for tid in sorted(self.targets):
            target = self.targets[tid]
            if problem is not None and tid in problem.tuples:
                initial = problem.tuples[tid].initial
                lines.append(f"  {tid}: {initial:.3f} -> {target:.3f}")
            else:
                lines.append(f"  {tid}: -> {target:.3f}")
        return "\n".join(lines)


class SearchState:
    """Mutable assignment with incremental confidence/cost bookkeeping.

    All four solvers walk the assignment space through this class.  Every
    confidence it reports — at construction, after a committed move, for a
    what-if :meth:`probe` — comes from the one place a confidence is
    computed, :meth:`~repro.lineage.ConfidenceFunction.evaluate`: a
    dictionary hit when the result's own variables are at values seen
    before, one forward sweep of its compiled circuit otherwise.  Undoing
    a move writes the recorded old confidences back.  Satisfied counts and
    total cost are maintained incrementally.
    """

    __slots__ = (
        "problem",
        "assignment",
        "confidences",
        "satisfied_flags",
        "satisfied_count",
        "cost",
        "group_counts",
        "unmet_groups",
    )

    def __init__(self, problem: IncrementProblem) -> None:
        self.problem = problem
        self.assignment: dict[TupleId, float] = problem.initial_assignment()
        self.confidences: list[float] = [
            result.evaluate(self.assignment) for result in problem.results
        ]
        self.satisfied_flags: list[bool] = [
            problem.satisfied(confidence) for confidence in self.confidences
        ]
        self.satisfied_count: int = sum(self.satisfied_flags)
        self.cost: float = 0.0
        # Per requirement-group satisfied counts and the count of groups
        # still short of their requirement (0 => globally satisfied).
        self.group_counts: list[int] = [
            sum(1 for index in members if self.satisfied_flags[index])
            for members, _count in problem.requirement_groups
        ]
        self.unmet_groups: int = sum(
            1
            for count, (_members, needed) in zip(
                self.group_counts, problem.requirement_groups
            )
            if count < needed
        )

    def _flip(self, index: int) -> None:
        """Toggle result *index*'s satisfied flag; keep the groups current."""
        problem = self.problem
        now = not self.satisfied_flags[index]
        self.satisfied_flags[index] = now
        step = 1 if now else -1
        self.satisfied_count += step
        for group_id in problem.groups_by_result[index]:
            needed = problem.requirement_groups[group_id][1]
            before = self.group_counts[group_id]
            self.group_counts[group_id] = before + step
            if now and before + 1 == needed:
                self.unmet_groups -= 1
            elif not now and before == needed:
                self.unmet_groups += 1

    def value_of(self, tid: TupleId) -> float:
        return self.assignment[tid]

    def set_value(self, tid: TupleId, value: float) -> UndoToken:
        """Assign ``tid := value``; returns the token for :meth:`undo`.

        The token holds the affected results' old confidences, so undoing
        is a write-back.  It is valid while every *other* tuple is at the
        value it had when the move was made — the solvers' last-in-first-out
        move discipline: undo the most recent not-yet-undone move first.
        """
        problem = self.problem
        state = problem.tuples[tid]
        old_value = self.assignment[tid]
        if abs(value - old_value) < _EPS:
            return []
        self.cost += state.cost_to(value) - state.cost_to(old_value)
        self.assignment[tid] = value
        pairs: UndoToken = []
        confidences = self.confidences
        for index in problem.results_by_tuple[tid]:
            confidence = problem.results[index].evaluate(self.assignment)
            pairs.append((index, confidences[index]))
            confidences[index] = confidence
            if problem.satisfied(confidence) != self.satisfied_flags[index]:
                self._flip(index)
        return pairs

    def commit(self, tid: TupleId, value: float) -> None:
        """:meth:`set_value` for moves that are never rolled back, such as
        greedy phase-1 picks."""
        self.set_value(tid, value)

    def undo(self, tid: TupleId, old_value: float, undo: UndoToken) -> None:
        """Reverse a :meth:`set_value` move (see its token discipline)."""
        problem = self.problem
        state = problem.tuples[tid]
        current = self.assignment[tid]
        if abs(current - old_value) >= _EPS:
            self.cost += state.cost_to(old_value) - state.cost_to(current)
            self.assignment[tid] = old_value
        for index, confidence in undo:
            self.confidences[index] = confidence
            if problem.satisfied(confidence) != self.satisfied_flags[index]:
                self._flip(index)

    def probe(
        self, tid: TupleId, value: float, indexes: Sequence[int]
    ) -> list[float]:
        """Confidences of result *indexes* if ``tid := value`` — no commit.

        Probes patch the assignment in place, evaluate, and patch it back.
        Each result's bounded cache has exactly the granularity gain scans
        need: re-probing a move whose relevant confidences did not change
        is a dictionary hit, and the caches stay warm across solver runs
        on the same problem.
        """
        results = self.problem.results
        assignment = self.assignment
        current = assignment[tid]
        assignment[tid] = value
        try:
            return [results[index].evaluate(assignment) for index in indexes]
        finally:
            assignment[tid] = current

    def is_satisfied(self) -> bool:
        """Whether every requirement group is met."""
        return self.unmet_groups == 0

    def result_needed(self, index: int) -> bool:
        """Whether lifting result *index* can still help: it is below the
        threshold and belongs to at least one unmet group."""
        if self.satisfied_flags[index]:
            return False
        problem = self.problem
        for group_id in problem.groups_by_result[index]:
            needed = problem.requirement_groups[group_id][1]
            if self.group_counts[group_id] < needed:
                return True
        return False

    def satisfied_indexes(self) -> tuple[int, ...]:
        return tuple(
            index for index, flag in enumerate(self.satisfied_flags) if flag
        )

    def snapshot_targets(self) -> dict[TupleId, float]:
        """The changed tuples' current values (plan extraction)."""
        return {
            tid: value
            for tid, value in self.assignment.items()
            if value > self.problem.tuples[tid].initial + _EPS
        }


def ceil_required(total: int, theta: float, theta_prime: float) -> int:
    """``(θ − θ')·n`` rounded up to whole results, clamped at ≥ 0."""
    return max(0, math.ceil((theta - theta_prime) * total - 1e-9))
