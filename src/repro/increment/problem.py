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

Inside this layer a base tuple is a **slot**: the problem numbers its
tuples ``0…k-1`` in sorted-:class:`TupleId` order (ties between tuples break
as before), the state's assignment is a positional list, and each tuple's
reached values are priced once.  ``TupleId`` stays at the boundary:
:attr:`IncrementProblem.tuples` in, :attr:`IncrementPlan.targets` out.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..cost import CostModel
from ..errors import IncrementError, InfeasibleIncrementError
from ..lineage.circuit import CircuitPool, pick
from ..lineage.confidence import ConfidenceFunction
from ..lineage.formula import Lineage
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


def _key_getter(slots: tuple[int, ...]):
    """``values -> tuple(values[slot] for slot in slots)`` (``itemgetter``
    alone would return a bare item for a single index)."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return lambda values: tuple(values[slot] for slot in slots)


class _Prices(dict):
    """One tuple's ``value -> cost_to(value)``.  Reading a value not seen
    before prices it — one ``CostModel.increment_cost`` call above the
    initial value — and keeps the price; a hit is a plain dict read."""

    __slots__ = ("state",)

    def __missing__(self, value: float) -> float:
        cost = self[value] = self.state.cost_to(value)
        return cost


class _Steps(dict):
    """One tuple's ``current -> (target, step cost)`` of one δ-step up, or
    ``None`` at its maximum.  Reading a value not seen before makes the
    step from the tuple's prices and keeps it; a hit is a plain dict read."""

    __slots__ = ("prices", "maximum", "delta")

    def __missing__(self, current: float) -> tuple[float, float] | None:
        maximum = self.maximum
        step = None
        if current < maximum - _EPS:
            target = current + self.delta
            if target > maximum:
                target = maximum
            prices = self.prices
            step = target, prices[target] - prices[current]
        self[current] = step
        return step


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
        maximum = self.maximum
        values = [self.initial]
        current = self.initial
        while current + delta < maximum - _EPS:
            current = min(round(current + delta, 12), maximum)
            values.append(current)
        if maximum > values[-1] + _EPS:
            values.append(maximum)
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
            # A product is monotone; reading its formula would build it.
            if result.factors is None and not result.formula.monotone:
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
        # (sorted by key: TupleId's own ordering compares in Python)
        self.tuples: dict[TupleId, BaseTupleState] = {
            tid: tuples[tid]
            for tid in sorted(needed, key=attrgetter("table", "ordinal"))
        }
        self.threshold = float(threshold)
        # Aggregate requirement (display / allocation); exact satisfaction
        # is per requirement group.
        self.required_count = sum(
            count for _members, count in self.requirement_groups
        )
        self.delta = float(delta)
        # The dense index space: slot i is the i-th tuple in sorted order.
        self.tids: tuple[TupleId, ...] = tuple(self.tuples)
        self.slot_of = {tid: slot for slot, tid in enumerate(self.tids)}
        states = self._states = list(self.tuples.values())
        self.initial = [state.initial for state in states]
        self.maximum = [state.maximum for state in states]
        # result index -> its variables' slots (sorted), the getter pulling
        # its key out of a positional assignment and the function of that
        # key (:meth:`~repro.lineage.ConfidenceFunction.keyed`)
        slot = self.slot_of.__getitem__
        self.result_slots: list[tuple[int, ...]] = [
            tuple(map(slot, result.variables)) for result in self.results
        ]
        self._keys = []
        self._at = []
        for result in self.results:
            key, at = result.keyed()
            self._keys.append(_key_getter(tuple(map(slot, key))))
            self._at.append(at)
        # slot -> indexes of results that depend on it
        self.results_by_slot: list[list[int]] = [[] for _ in states]
        for index, slots in enumerate(self.result_slots):
            for slot in slots:
                self.results_by_slot[slot].append(index)
        # Tabulated lazily, never invalidated (the problem is immutable):
        # per slot its prices and δ-steps up, each filled by its first
        # read; per (initial, maximum) pair the δ-grid, which slots with
        # the same pair share; per group the count achievable at maximum.
        #: ``prices[slot][value]``: ``cost_to(value)`` of the tuple in
        #: *slot*, priced the first time *value* is read (0 at the initial
        #: value, by definition).
        self.prices: list[_Prices] = []
        #: ``steps[slot][current]``: one δ-step up from *current* as
        #: ``(target, step cost)``, or ``None`` at the maximum.  Tabulated
        #: by the value actually reached: phase 1 climbs by repeated
        #: ``current + δ``, not the rounded grid of :meth:`levels_of`.
        self.steps: list[_Steps] = []
        for state, maximum in zip(states, self.maximum):
            prices = _Prices()
            prices[state.initial] = 0.0
            prices.state = state
            steps = _Steps()
            steps.prices = prices
            steps.maximum = maximum
            steps.delta = self.delta
            self.prices.append(prices)
            self.steps.append(steps)
        self._grids: dict[tuple[float, float], list[float]] = {}
        self._achievable: list[int] | None = None
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

    def group_counts(self, flags: Sequence[bool]) -> list[int]:
        """Per requirement group, how many of its results *flags* marks."""
        return [
            sum(1 for index in members if flags[index])
            for members, _count in self.requirement_groups
        ]

    def requirements_met(self, flags: Sequence[bool]) -> bool:
        """Whether per-result satisfaction *flags* meet every group."""
        counts = self.group_counts(flags)
        return all(
            met >= group[1] for met, group in zip(counts, self.requirement_groups)
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_results(
        cls,
        lineages: Sequence[Lineage | Sequence[TupleId]],
        db: "Database",
        threshold: float,
        required_count: int = 0,
        delta: float = 0.1,
        labels: Sequence[str] | None = None,
        *,
        pool: CircuitPool | None = None,
        requirement_groups: (
            Sequence[tuple[Sequence[int], int]] | None
        ) = None,
    ) -> "IncrementProblem":
        """Build a problem from raw lineages, reading current confidences
        and cost models from the database.  A row given as the base tuples
        it is the product of, in factor order, or as a plain-product
        formula, is that product; every other row compiles into one
        *pool* — into the result set's, each compile is a memo hit.
        *requirement_groups* (one per query of a batch) replaces
        *required_count* as in the constructor."""
        pool = CircuitPool() if pool is None else pool
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
        return cls(
            functions, tuples, threshold, required_count, delta, requirement_groups
        )

    # -- basic queries -------------------------------------------------------

    def initial_assignment(self) -> dict[TupleId, float]:
        """Every tuple at its current (stored) confidence."""
        return dict(zip(self.tids, self.initial))

    def maximal_assignment(self) -> dict[TupleId, float]:
        """Every tuple at its maximum reachable confidence."""
        return dict(zip(self.tids, self.maximum))

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
        return sum(self._flags(pick(assignment, self.tids)))

    def cost_of(self, assignment: Mapping[TupleId, float]) -> float:
        """Total increment cost of moving from initial to *assignment*."""
        return sum(
            self.tuples[tid].cost_to(value)
            for tid, value in assignment.items()
            if tid in self.tuples
        )

    def _flags(self, values: Sequence[float]) -> list[bool]:
        """Per-result satisfaction under the positional assignment *values*."""
        return [
            self.satisfied(at(key(values)))
            for key, at in zip(self._keys, self._at)
        ]

    def levels_of(self, slot: int) -> list[float]:
        """The δ-grid of the tuple in *slot*: a function of its initial
        value and maximum alone, built once per distinct pair."""
        pair = self.initial[slot], self.maximum[slot]
        levels = self._grids.get(pair)
        if levels is None:
            levels = self._grids[pair] = self._states[slot].levels(self.delta)
        return levels

    def previous_level(self, slot: int, value: float) -> float:
        """The largest grid level of *slot* strictly below *value*.  Walk-back
        must stay on the δ-lattice ``{p, p+δ, …, max}``: ``value − δ`` from a
        clamped maximum would land between grid points, outside the space
        the exact solver searches (breaking its optimality guarantee)."""
        levels = self.levels_of(slot)
        return levels[max(bisect_left(levels, value - _EPS) - 1, 0)]

    def is_trivial(self) -> bool:
        """Already satisfied without any increment."""
        return self.requirements_met(self._flags(self.initial))

    def achievable(self) -> list[int]:
        """Per requirement group, how many of its results clear the
        threshold with every tuple at its maximum — evaluated once, read
        by every feasibility check."""
        if self._achievable is None:
            self._achievable = self.group_counts(self._flags(self.maximum))
        return self._achievable

    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleIncrementError` if even raising every
        tuple to its maximum cannot satisfy every requirement."""
        for group_id, best in enumerate(self.achievable()):
            members, count = self.requirement_groups[group_id]
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
        clamped = [
            (members, min(count, best))
            for (members, count), best in zip(
                self.requirement_groups, self.achievable()
            )
        ]
        if clamped == self.requirement_groups:
            return self
        return self._regrouped(self.results, clamped)

    def _regrouped(self, results, groups) -> "IncrementProblem":
        return IncrementProblem(
            results, self.tuples, self.threshold, 0, self.delta, groups
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
        return self._regrouped(results, mapped)

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
    #: The confidence of every base tuple of the problem as the solver
    #: read it — what the targets and the cost were computed from.  A
    #: write-back is refused where the database no longer holds them.
    read: dict[TupleId, float] = field(default_factory=dict)

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

    All four solvers walk the assignment space through this class, by
    slot: :attr:`values` is the positional assignment.  Every confidence
    it reports — at construction, after a move, in a :meth:`gain` probe or
    a judged :meth:`walk_back` — is the result's function of a key pulled
    out of :attr:`values` by its own slots: a product's factors multiplied
    in factor order, or :meth:`~repro.lineage.ConfidenceFunction.at` — a
    dictionary hit at values seen before, the input of one forward sweep
    of its circuit otherwise.  Undoing a move writes the recorded old
    confidences back.  Satisfied counts, the per-result :attr:`needed`
    flags and total cost are maintained incrementally.
    """

    __slots__ = (
        "problem",
        "values",
        "confidences",
        "satisfied_flags",
        "satisfied_count",
        "cost",
        "group_counts",
        "unmet_groups",
        "needed",
    )

    def __init__(self, problem: IncrementProblem) -> None:
        self.problem = problem
        values = self.values = list(problem.initial)
        self.confidences: list[float] = [
            at(key(values)) for key, at in zip(problem._keys, problem._at)
        ]
        self.satisfied_flags: list[bool] = [
            problem.satisfied(confidence) for confidence in self.confidences
        ]
        self.satisfied_count: int = sum(self.satisfied_flags)
        self.cost: float = 0.0
        # Per requirement-group satisfied counts and the count of groups
        # still short of their requirement (0 => globally satisfied).
        self.group_counts = problem.group_counts(self.satisfied_flags)
        self.unmet_groups: int = sum(
            count < needed
            for count, (_members, needed) in zip(
                self.group_counts, problem.requirement_groups
            )
        )
        #: Per result, whether lifting it can still help: it is below the
        #: threshold and belongs to at least one unmet group.
        self.needed: list[bool] = [False] * len(self.confidences)
        self._renew_needed(range(len(self.confidences)))

    def _renew_needed(self, indexes: Iterable[int]) -> None:
        """Recompute :attr:`needed` for *indexes* from the current flags
        and group counts."""
        flags = self.satisfied_flags
        counts = self.group_counts
        groups = self.problem.requirement_groups
        groups_by_result = self.problem.groups_by_result
        needed = self.needed
        for index in indexes:
            needed[index] = False
            if not flags[index]:
                for group_id in groups_by_result[index]:
                    if counts[group_id] < groups[group_id][1]:
                        needed[index] = True
                        break

    def _flip(self, index: int) -> None:
        """Toggle result *index*'s satisfied flag; keep the groups and the
        :attr:`needed` flags current."""
        problem = self.problem
        counts = self.group_counts
        now = not self.satisfied_flags[index]
        self.satisfied_flags[index] = now
        step = 1 if now else -1
        self.satisfied_count += step
        short = False  # whether a group of *index* is still unmet
        for group_id in problem.groups_by_result[index]:
            members, needed = problem.requirement_groups[group_id]
            count = counts[group_id] = counts[group_id] + step
            if now and count == needed:
                self.unmet_groups -= 1
                self._renew_needed(members)
            elif not now and count == needed - 1:
                self.unmet_groups += 1
                self._renew_needed(members)
            short = short or count < needed
        self.needed[index] = short and not now

    def commit(self, slot: int, value: float) -> None:
        """Assign ``values[slot] := value`` for good: the affected results
        are re-evaluated, nothing is recorded to undo it."""
        problem = self.problem
        values = self.values
        old_value = values[slot]
        if abs(value - old_value) < _EPS:
            return
        prices = problem.prices[slot]
        self.cost += prices[value] - prices[old_value]
        values[slot] = value
        keys = problem._keys
        at = problem._at
        confidences = self.confidences
        flags = self.satisfied_flags
        floor = problem.threshold - _EPS  # IncrementProblem.satisfied
        for index in problem.results_by_slot[slot]:
            confidence = confidences[index] = at[index](keys[index](values))
            if (confidence >= floor) != flags[index]:
                self._flip(index)

    def set_value(self, slot: int, value: float) -> UndoToken:
        """:meth:`commit`, recording the token for :meth:`undo`: the
        affected results' old confidences, so undoing is a write-back.  It
        is valid while every *other* tuple is at the value it had when the
        move was made — the solvers' last-in-first-out move discipline:
        undo the most recent not-yet-undone move first.  (The loop is
        :meth:`commit`'s, token added, rather than a call to it: the
        branch-and-bound solver makes this move at every node.)
        """
        problem = self.problem
        values = self.values
        old_value = values[slot]
        if abs(value - old_value) < _EPS:
            return []
        prices = problem.prices[slot]
        self.cost += prices[value] - prices[old_value]
        values[slot] = value
        keys = problem._keys
        at = problem._at
        confidences = self.confidences
        flags = self.satisfied_flags
        floor = problem.threshold - _EPS  # IncrementProblem.satisfied
        undo: UndoToken = []
        for index in problem.results_by_slot[slot]:
            undo.append((index, confidences[index]))
            confidence = confidences[index] = at[index](keys[index](values))
            if (confidence >= floor) != flags[index]:
                self._flip(index)
        return undo

    def undo(self, slot: int, old_value: float, undo: UndoToken) -> None:
        """Reverse a :meth:`set_value` move (see its token discipline)."""
        problem = self.problem
        current = self.values[slot]
        if abs(current - old_value) >= _EPS:
            prices = problem.prices[slot]
            self.cost += prices[old_value] - prices[current]
            self.values[slot] = old_value
        for index, confidence in undo:
            self.confidences[index] = confidence
            if problem.satisfied(confidence) != self.satisfied_flags[index]:
                self._flip(index)

    def walk_back(self, slot: int, value: float) -> bool:
        """Lower ``values[slot]`` to *value* if every requirement group is
        still met afterwards, and say whether it was.  The move is judged
        before anything is written; a rejected one leaves the assignment,
        confidences and flags as they were, and adds the move's cost and
        its reverse to :attr:`cost` — the two additions :meth:`set_value`
        then :meth:`undo` make, so the float total is the same."""
        problem = self.problem
        values = self.values
        current = values[slot]
        if abs(value - current) < _EPS:
            return self.unmet_groups == 0
        prices = problem.prices[slot]
        self.cost += prices[value] - prices[current]
        keys = problem._keys
        at = problem._at
        indexes = problem.results_by_slot[slot]
        values[slot] = value
        fresh = [at[index](keys[index](values)) for index in indexes]
        flags = self.satisfied_flags
        floor = problem.threshold - _EPS  # IncrementProblem.satisfied
        flipped = [
            index
            for index, confidence in zip(indexes, fresh)
            if (confidence >= floor) != flags[index]
        ]
        if not self._met_after(flipped):
            values[slot] = current
            self.cost += prices[current] - prices[value]
            return False
        confidences = self.confidences
        for index, confidence in zip(indexes, fresh):
            confidences[index] = confidence
        for index in flipped:
            self._flip(index)
        return True

    def _met_after(self, flipped: Sequence[int]) -> bool:
        """Whether every requirement group would be met with the
        satisfied flags of *flipped* toggled."""
        if not flipped:
            return self.unmet_groups == 0
        problem = self.problem
        flags = self.satisfied_flags
        counts = list(self.group_counts)
        for index in flipped:
            step = -1 if flags[index] else 1
            for group_id in problem.groups_by_result[index]:
                counts[group_id] += step
        return all(
            count >= needed
            for count, (_members, needed) in zip(
                counts, problem.requirement_groups
            )
        )

    def gain(self, slot: int, every: bool, stats: SolverStats) -> float:
        """gain* of one δ-step up on *slot* (greedy, paper §4.2): ΔF over
        its step cost, where ΔF is the confidence the step adds, summed
        over the :attr:`needed` results of ``results_by_slot[slot]`` — over
        all of them when *every* — in that order.

        ``-inf`` when the tuple is at its maximum; otherwise the evaluation
        is counted in *stats*, zero ΔF scores 0 regardless of cost and a
        zero-cost step with positive ΔF scores ``+inf``.  No commit: the
        assignment is patched, evaluated and patched back.  Re-evaluating
        a move whose inputs did not change is a hit in each compiled
        result's bounded cache, warm across solves of one problem; a
        product is multiplied again."""
        problem = self.problem
        values = self.values
        current = values[slot]
        step = problem.steps[slot][current]
        if step is None:
            return -math.inf
        target, step_cost = step
        stats.gain_evaluations += 1
        keys = problem._keys
        at = problem._at
        confidences = self.confidences
        needed = self.needed
        values[slot] = target
        delta = 0.0
        try:
            for index in problem.results_by_slot[slot]:
                if every or needed[index]:
                    delta += at[index](keys[index](values)) - confidences[index]
        finally:
            values[slot] = current
        if delta <= _EPS:
            return 0.0
        if step_cost <= _EPS:
            return math.inf
        return delta / step_cost

    def is_satisfied(self) -> bool:
        """Whether every requirement group is met."""
        return self.unmet_groups == 0

    def satisfied_indexes(self) -> tuple[int, ...]:
        return tuple(
            index for index, flag in enumerate(self.satisfied_flags) if flag
        )

    def changed_slots(self) -> list[int]:
        """Slots currently above their initial value, ascending."""
        initial = self.problem.initial
        return [
            slot
            for slot, value in enumerate(self.values)
            if value > initial[slot] + _EPS
        ]

    def snapshot_targets(self) -> dict[TupleId, float]:
        """The changed tuples' current values (plan extraction)."""
        tids = self.problem.tids
        return {tids[slot]: self.values[slot] for slot in self.changed_slots()}


def ceil_required(total: int, theta: float, theta_prime: float) -> int:
    """``(θ − θ')·n`` rounded up to whole results, clamped at ≥ 0."""
    return max(0, math.ceil((theta - theta_prime) * total - 1e-9))
