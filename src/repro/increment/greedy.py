"""Two-phase greedy solver (paper §4.2, Figure 6).

**Phase 1 (aggressive increase)** — repeatedly compute, for every base
tuple, the *gain* of raising its confidence by one δ-step:

.. math::  gain^* = \\frac{\\sum_{λ ∈ Λ} ΔF_λ}{c_{λ^0}(δ)}

(Δ confidence summed over the still-unsatisfied results the tuple feeds,
divided by the step's cost), then take the best tuple, until the required
number of results clears the threshold.  Gains are cached and only
recomputed for *neighbours* of the picked tuple — tuples sharing at least
one result — which keeps the loop near-linear on sparse workloads.

**Phase 2 (refinement)** — the aggressive phase can overshoot (a tuple
picked early may not serve any finally-satisfied result).  Tuples that were
increased are revisited in ascending order of their latest gain*, and each
is walked back δ-step by δ-step while the requirement still holds (each
step judged before it is applied).  The paper measures phase 2 cutting
total cost by >30% at negligible time cost (Figure 11(b)/(e)).

A gain evaluation is one :meth:`SearchState.gain` call, reading the
step it prices straight out of :attr:`IncrementProblem.steps`.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import Iterable

from ..errors import IncrementError, InfeasibleIncrementError
from .problem import (
    IncrementPlan,
    IncrementProblem,
    SearchState,
    SolverStats,
)
from .runtime import Budget, budget_exceeded, run_frame

__all__ = ["GreedyOptions", "solve_greedy"]

_EPS = 1e-9

logger = logging.getLogger(__name__)


@dataclass
class GreedyOptions:
    """Knobs for the greedy solver.

    ``two_phase=False`` gives the paper's "One-Phase" baseline (Figure
    11(b)/(e)).  ``gain_scope`` chooses which results the numerator of
    gain* sums over: ``"unsatisfied"`` (default; satisfied results cannot
    need more confidence) or ``"all"`` (a literal reading of Equation 2,
    kept for ablation).  ``recompute`` selects the phase-1 engine:

    * ``"incremental"`` (default) — gains live in a lazy max-heap and only
      neighbours of the picked tuple are refreshed; near-linear on sparse
      workloads.  This is our improvement over the paper.
    * ``"full"`` — the paper's loop: every iteration recomputes every
      tuple's gain ("We need to recompute gain at each step", §4.2), giving
      the O(k·l₁) behaviour whose breakdown at scale motivates the D&C
      algorithm.  Benchmarks reproducing Figure 11 use this mode.
    """

    two_phase: bool = True
    gain_scope: str = "unsatisfied"
    recompute: str = "incremental"

    def __post_init__(self) -> None:
        if self.gain_scope not in ("unsatisfied", "all"):
            raise IncrementError(f"unknown gain scope {self.gain_scope!r}")
        if self.recompute not in ("incremental", "full"):
            raise IncrementError(f"unknown recompute mode {self.recompute!r}")


def solve_greedy(
    problem: IncrementProblem,
    options: GreedyOptions | None = None,
    budget: Budget | None = None,
) -> IncrementPlan:
    """Approximate solution of *problem* by two-phase greedy search.

    With a *budget*, phase 1 raises :class:`~repro.errors.TimeBudgetExceeded`
    on exhaustion (no feasible incumbent can exist mid-phase-1), while
    phase 2 simply stops refining and returns the feasible plan built so
    far (``stats.budget_exhausted = True``).
    """
    options = options or GreedyOptions()
    with run_frame(
        "greedy", problem, budget, two_phase=options.two_phase
    ) as run:
        stats = run.stats
        state = SearchState(problem)

        if not state.is_satisfied():
            problem.check_feasible()
            last_gain = _phase_one(problem, state, options, stats, budget)
            if options.two_phase:
                _phase_two(problem, state, last_gain, stats, budget)

        algorithm = "greedy" if options.two_phase else "greedy-1phase"
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "%s solved: cost=%.4f gain_evaluations=%d phase2_reductions=%d",
                algorithm,
                state.cost,
                stats.gain_evaluations,
                stats.phase2_reductions,
            )
        return run.plan(
            state.snapshot_targets(),
            state.cost,
            state.satisfied_indexes(),
            algorithm,
        )


def _phase_one(
    problem: IncrementProblem,
    state: SearchState,
    options: GreedyOptions,
    stats: SolverStats,
    budget: Budget | None = None,
) -> dict[int, float]:
    """Raise confidences greedily until the requirement holds.

    Returns each increased slot's latest gain* (phase-2 ordering).
    """
    # slot -> slots sharing at least one result (gain invalidation set)
    neighbours: list[set[int]] = [set() for _ in problem.tids]
    for slots in problem.result_slots:
        for slot in slots:
            neighbours[slot].update(slots)

    # Max-heap with lazy invalidation: each entry carries a stamp; stale
    # entries (stamp mismatch) are discarded on pop.  This keeps each
    # iteration O(log k + |neighbourhood|) instead of O(k).  Ties on gain
    # break by slot, i.e. by sorted tuple id.
    stamps = [0] * len(neighbours)
    heap: list[tuple[float, int, int]] = []
    every = options.gain_scope == "all"
    gain_of = state.gain

    def refresh(slots: Iterable[int]) -> None:
        for slot in slots:
            if budget is not None:
                budget.charge_probe()
            gain = gain_of(slot, every, stats)
            stamps[slot] += 1
            if gain > 0.0:
                heapq.heappush(heap, (-gain, slot, stamps[slot]))

    # The paper's loop ("full") recomputes every gain at each step, after
    # the step's budget charge; ours only what the last pick made stale.
    full = options.recompute == "full"
    last_gain: dict[int, float] = {}
    stale: Iterable[int] = range(len(neighbours))
    while True:
        if not full:
            refresh(stale)
        if state.is_satisfied():
            return last_gain
        if budget is not None and not budget.charge():
            # Phase 1 only terminates feasible; mid-loop there is no
            # incumbent to fall back on.
            raise budget_exceeded("greedy", problem, state, stats)
        if full:
            heap.clear()
            refresh(range(len(neighbours)))
        pick: int | None = None
        while heap:
            negated, slot, stamp = heapq.heappop(heap)
            if stamps[slot] == stamp:  # else a stale entry
                pick = slot
                break
        if pick is None:
            # No single δ-step improves any unsatisfied result — cannot
            # happen for feasible monotone problems, but guard against
            # pathological cost models (all remaining tuples capped).
            logger.warning(
                "greedy search stalled with %d unmet requirement group(s)",
                state.unmet_groups,
            )
            raise InfeasibleIncrementError(
                "greedy search stalled: no confidence step improves any "
                "unsatisfied result"
            )
        state.commit(pick, problem.steps[pick][state.values[pick]][0])
        last_gain[pick] = -negated
        stale = neighbours[pick]


def _phase_two(
    problem: IncrementProblem,
    state: SearchState,
    last_gain: dict[int, float],
    stats: SolverStats,
    budget: Budget | None = None,
) -> None:
    """Walk back unnecessary increments, cheapest-gain slots first.

    The state entering phase 2 is feasible and every move keeps it so; on
    budget exhaustion refinement simply stops (anytime behavior — the
    caller returns the current feasible assignment).
    """
    values = state.values
    for slot in sorted(last_gain, key=lambda slot: (last_gain[slot], slot)):
        if budget is not None and not budget.charge():
            return
        initial = problem.initial[slot]
        while values[slot] > initial + _EPS and state.is_satisfied():
            lower = problem.previous_level(slot, values[slot])
            if not state.walk_back(slot, lower):
                break
            stats.phase2_reductions += 1
