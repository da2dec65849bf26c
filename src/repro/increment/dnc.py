"""Divide-and-conquer solver (paper §4.3).

Pipeline:

1. **Partition** the intermediate results into groups of related tuples
   (:func:`~repro.increment.partition.partition_results`): results sharing
   many base tuples land together, so confidence increments concentrate
   where they benefit several results at once.
2. **Solve each group**: the greedy algorithm runs on the sub-problem
   restricted to the group's results, requiring ``min(x, y)`` of its ``x``
   results (``y`` = the query's global requirement).  Groups whose
   sub-problem has fewer than τ base tuples additionally get an exact
   branch-and-bound pass seeded with the greedy cost as upper bound —
   "the results obtained from the greedy algorithm serve as initial cost
   upper bounds".
3. **Combine**: per-tuple targets across groups merge by maximum, which
   never lowers any group's achieved confidences (monotone lineage).
4. **Refine**: the combined answer usually over-satisfies; a phase-2-style
   reduction walks increments back (ascending gain*) while the global
   requirement still holds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from ..errors import IncrementError
from ..obs import get_metrics
from ..storage.tuples import TupleId
from .greedy import GreedyOptions, _phase_two, solve_greedy
from .heuristic import HeuristicOptions, solve_heuristic
from .partition import PartitionOptions, partition_results
from .problem import (
    IncrementPlan,
    IncrementProblem,
    SearchState,
    SolverStats,
)
from .runtime import Budget, run_frame

__all__ = ["DncOptions", "solve_dnc"]

_EPS = 1e-9

logger = logging.getLogger(__name__)


@dataclass
class DncOptions:
    """Knobs for the divide-and-conquer solver.

    ``tau`` is the paper's τ: groups whose sub-problem has fewer base
    tuples than this get an exact refinement pass.  ``heuristic_node_limit``
    bounds that inner search so one dense group cannot stall the solve.

    ``allocation`` chooses each group's required result count:

    * ``"proportional"`` (default) — a group with ``x`` of the ``n``
      results must satisfy ``ceil(x · y / n)``; every group contributes its
      fair share, groups keep the freedom to pick their cheapest results,
      and the combined answer barely over-satisfies.
    * ``"paper"`` — the paper's literal rule ``min(x, y)``; heavily
      over-satisfies when groups are small and leans on the refinement
      pass to walk the excess back.
    """

    partition: PartitionOptions = field(default_factory=PartitionOptions)
    greedy: GreedyOptions = field(default_factory=GreedyOptions)
    tau: int = 6
    heuristic_node_limit: int = 2_000
    refine: bool = True
    allocation: str = "proportional"

    def __post_init__(self) -> None:
        if self.allocation not in ("proportional", "paper"):
            raise IncrementError(f"unknown allocation mode {self.allocation!r}")


def solve_dnc(
    problem: IncrementProblem,
    options: DncOptions | None = None,
    budget: Budget | None = None,
) -> IncrementPlan:
    """Approximate solution of *problem* by partition + per-group search.

    A runtime *budget* is shared by every inner solve (the per-group
    greedy passes, the exact refinements, and the global top-up/refine
    phases), so the whole pipeline honours one deadline.  Exhaustion
    before the combined answer is feasible raises
    :class:`~repro.errors.TimeBudgetExceeded`; afterwards the refinement
    fixpoint stops early and the feasible plan is returned.
    """
    options = options or DncOptions()
    with run_frame("dnc", problem, budget) as run:
        stats = run.stats
        state = SearchState(problem)

        if not state.is_satisfied():
            problem.check_feasible()
            groups = partition_results(problem, options.partition)
            stats.groups = len(groups)
            partition_sizes = get_metrics().histogram("solver.dnc.partition_size")
            for group in groups:
                partition_sizes.observe(len(group))
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "D&C partitioned %d results into %d group(s), largest %d",
                    len(problem.results),
                    len(groups),
                    max((len(group) for group in groups), default=0),
                )
            combined = _solve_groups(problem, groups, options, stats, budget)
            for tid, target in combined.items():
                state.commit(problem.slot_of[tid], target)
            _top_up(problem, state, options, stats, budget)
            if options.refine:
                _refine(problem, state, stats, budget)

        return run.plan(
            state.snapshot_targets(), state.cost, state.satisfied_indexes()
        )


def _solve_groups(
    problem: IncrementProblem,
    groups: list[list[int]],
    options: DncOptions,
    stats: SolverStats,
    budget: Budget | None = None,
) -> dict[TupleId, float]:
    """Solve every group and merge targets by maximum."""
    combined: dict[TupleId, float] = {}
    total = len(problem.results)
    for group in groups:
        if problem.is_multi_requirement:
            # Multi-query: the original requirement groups are intersected
            # with the partition group, each keeping a proportional share.
            sub = problem.subproblem(group)
        elif options.allocation == "proportional":
            share = len(group) * problem.required_count / max(total, 1)
            required = min(len(group), math.ceil(share - 1e-9))
            sub = problem.subproblem(group, required)
        else:
            required = min(len(group), problem.required_count)
            sub = problem.subproblem(group, required)
        # Some of the group's results may be unreachable even at maximal
        # confidence; clamp requirements to what is achievable so a hard
        # group cannot make the whole solve infeasible (the global top-up
        # and refinement passes still enforce the real requirements).
        sub = sub.clamped_to_achievable()
        if sub.required_count == 0 or sub.is_trivial():
            continue
        plan = solve_greedy(sub, options.greedy, budget)
        stats.gain_evaluations += plan.stats.gain_evaluations
        if len(sub.tuples) < options.tau:
            refined = _exact_refinement(sub, plan, options, budget)
            if refined is not None and refined.total_cost < plan.total_cost:
                plan = refined
        for tid, target in plan.targets.items():
            if target > combined.get(tid, 0.0):
                combined[tid] = target
    return combined


def _exact_refinement(
    sub: IncrementProblem,
    greedy_plan: IncrementPlan,
    options: DncOptions,
    budget: Budget | None = None,
) -> IncrementPlan | None:
    """Branch-and-bound pass seeded with the greedy cost as upper bound."""
    heuristic_options = HeuristicOptions(
        initial_upper_bound=greedy_plan.total_cost,
        node_limit=options.heuristic_node_limit,
    )
    try:
        return solve_heuristic(sub, heuristic_options, budget)
    except IncrementError:
        # No strictly cheaper solution below the bound (or a budget —
        # including TimeBudgetExceeded on the shared one — ran out before
        # finding one): keep the feasible greedy answer.
        return None


def _top_up(
    problem: IncrementProblem,
    state: SearchState,
    options: DncOptions,
    stats: SolverStats,
    budget: Budget | None = None,
) -> None:
    """Safety net: if clamped groups left the global requirement short,
    finish with global greedy steps."""
    if state.is_satisfied():
        return
    greedy_options = options.greedy
    from .greedy import _phase_one

    last_gain = _phase_one(problem, state, greedy_options, stats, budget)
    del last_gain  # refinement below recomputes gains at the final state


def _refine(
    problem: IncrementProblem,
    state: SearchState,
    stats: SolverStats,
    budget: Budget | None = None,
) -> None:
    """Global reduction passes (greedy phase-2 over the combined answer).

    Per-group solving over-satisfies — every group lifts up to *all* of its
    results while only the global requirement must hold — so walk-back has
    far more to undo here than after plain greedy.  One ascending-gain pass
    can unlock further reductions (undoing tuple A may free tuple B), so we
    iterate to a fixpoint; each pass is cheap relative to the solve.
    """
    while True:
        if budget is not None and not budget.check():
            return  # the combined state is feasible; stop refining
        changed = state.changed_slots()
        if not changed:
            return
        before = stats.phase2_reductions
        # Gains over *all* results: at a satisfied state the unsatisfied
        # scope would be identically zero and give a degenerate order.
        gains = {slot: state.gain(slot, True, stats) for slot in changed}
        _phase_two(problem, state, gains, stats, budget)
        if stats.phase2_reductions == before:
            return
