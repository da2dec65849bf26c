"""Iterated local search — a fourth solver, beyond the paper.

The paper's greedy walk-back (phase 2) only ever *lowers* confidences one
tuple at a time, so it cannot escape solutions where spending a little more
on tuple B would free a lot of spending on tuple A.  This solver adds
exactly that move:

1. **Start** from the two-phase greedy solution (always feasible).
2. **Descend**: alternate single-tuple lowering sweeps (greedy phase-2
   style) with randomized *swap* moves — raise one tuple a level, then try
   to lower another below its current level; accept when the net cost
   drops and feasibility holds.
3. **Perturb and repeat** (classic ILS): randomly bump a few tuples,
   re-descend, keep the result only if it improves the best known plan.

Deterministic for a fixed seed.  Cost is never worse than greedy's (the
greedy plan is the fallback incumbent); run time is a small multiple of
greedy's.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from ..errors import IncrementError
from .greedy import GreedyOptions, _phase_two, solve_greedy
from .problem import (
    IncrementPlan,
    IncrementProblem,
    SearchState,
    SolverStats,
)
from .runtime import Budget, run_frame

__all__ = ["LocalSearchOptions", "solve_local_search"]

_EPS = 1e-9

logger = logging.getLogger(__name__)


@dataclass
class LocalSearchOptions:
    """Knobs for the iterated-local-search solver.

    ``initial_plan`` seeds the search from an existing feasible plan
    (e.g. a D&C result, to polish its allocation) instead of running
    greedy first.
    """

    seed: int = 0
    restarts: int = 3
    swap_attempts: int = 400
    perturbation_size: int = 3
    greedy: GreedyOptions | None = None
    initial_plan: IncrementPlan | None = None

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise IncrementError(f"restarts must be >= 1, got {self.restarts}")
        if self.swap_attempts < 0 or self.perturbation_size < 0:
            raise IncrementError("swap/perturbation sizes must be >= 0")


def solve_local_search(
    problem: IncrementProblem,
    options: LocalSearchOptions | None = None,
    budget: Budget | None = None,
) -> IncrementPlan:
    """Approximate solution by iterated local search over the δ-grid.

    The greedy seed (always feasible) is the anytime incumbent: once it
    exists, budget exhaustion just ends the descent/perturbation loop and
    the best plan found so far is returned.  Only a budget expiring inside
    the seeding greedy run itself can raise
    :class:`~repro.errors.TimeBudgetExceeded`.
    """
    options = options or LocalSearchOptions()
    with run_frame(
        "local-search", problem, budget, restarts=options.restarts
    ) as run:
        stats = run.stats
        rng = random.Random(options.seed)

        if options.initial_plan is not None:
            seed_plan = options.initial_plan
        else:
            seed_plan = solve_greedy(problem, options.greedy, budget)
            stats.gain_evaluations += seed_plan.stats.gain_evaluations

        state = SearchState(problem)
        for tid, target in seed_plan.targets.items():
            state.commit(problem.slot_of[tid], target)
        if not state.is_satisfied():
            raise IncrementError(
                "local search requires a feasible initial plan"
            )

        best_cost = state.cost
        best_targets = dict(seed_plan.targets)
        best_satisfied = state.satisfied_indexes()

        for _restart in range(options.restarts):
            if budget is not None and not budget.check():
                break
            _descend(problem, state, rng, options, stats, budget)
            if state.is_satisfied() and state.cost < best_cost - _EPS:
                best_cost = state.cost
                best_targets = state.snapshot_targets()
                best_satisfied = state.satisfied_indexes()
            _perturb(problem, state, rng, options)

        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "local search finished: cost=%.4f (seed %.4f), "
                "%d accepted swap move(s)",
                best_cost,
                seed_plan.total_cost,
                stats.swap_moves,
            )
        return run.plan(best_targets, best_cost, best_satisfied)


def _descend(
    problem: IncrementProblem,
    state: SearchState,
    rng: random.Random,
    options: LocalSearchOptions,
    stats: SolverStats,
    budget: Budget | None = None,
) -> None:
    """Lowering sweeps + randomized swap moves until no move improves."""
    improved = True
    while improved:
        improved = False
        if budget is not None and not budget.charge():
            return
        # Single-tuple lowering sweep (phase-2 style, ascending gain).
        changed = state.changed_slots()
        if changed:
            before = stats.phase2_reductions
            gains = {slot: state.gain(slot, True, stats) for slot in changed}
            _phase_two(problem, state, gains, stats, budget)
            if stats.phase2_reductions > before:
                improved = True
        # Randomized swap moves: raise B one level, then try to lower A.
        for _ in range(options.swap_attempts):
            if budget is not None and not budget.charge():
                return
            if _try_swap(problem, state, rng):
                stats.swap_moves += 1
                improved = True


def _try_swap(
    problem: IncrementProblem, state: SearchState, rng: random.Random
) -> bool:
    """One raise-B / lower-A move; True if it reduced cost feasibly."""
    changed = state.changed_slots()
    if not changed:
        return False
    values = state.values
    lower = rng.choice(changed)
    candidates = [slot for slot in range(len(values)) if slot != lower]
    if not candidates:
        return False
    raised = rng.choice(candidates)
    raise_old = values[raised]
    step = problem.steps[raised][raise_old]
    if step is None:
        return False

    cost_before = state.cost
    raise_undo = state.set_value(raised, step[0])
    # Lower the chosen tuple as far as feasibility allows.
    lower_old = values[lower]
    initial = problem.initial[lower]
    lowered_any = False
    while values[lower] > initial + _EPS:
        if not state.walk_back(
            lower, problem.previous_level(lower, values[lower])
        ):
            break
        lowered_any = True
    if lowered_any and state.is_satisfied() and state.cost < cost_before - _EPS:
        return True
    # Net loss (or infeasible): roll everything back.
    state.commit(lower, lower_old)
    state.undo(raised, raise_old, raise_undo)
    return False


def _perturb(
    problem: IncrementProblem,
    state: SearchState,
    rng: random.Random,
    options: LocalSearchOptions,
) -> None:
    """Random kick: bump a few tuples one level (keeps feasibility)."""
    slots = range(len(state.values))
    for _ in range(options.perturbation_size):
        slot = rng.choice(slots)
        step = problem.steps[slot][state.values[slot]]
        if step is not None:
            state.commit(slot, step[0])
