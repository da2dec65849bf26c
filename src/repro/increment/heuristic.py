"""Exact branch-and-bound solver with the paper's heuristics H1–H4 (§4.1).

The search assigns a confidence value to one base tuple per tree level,
drawn from the δ-grid ``{p, p+δ, …, max}``.  Values are tried cheapest
first, costs accumulate down the path, and a completed requirement
(``satisfied ≥ required``) records a candidate solution whose cost becomes
the incumbent upper bound.

Pruning rules (all individually toggleable for the Figure 11(a)/(d)
ablation):

* **Bound** (always on — the paper's "Naive"): abandon any node whose cost
  already reaches the incumbent.  Because values are tried in increasing
  order, the node's right siblings are abandoned too.
* **H1 — variable ordering**: sort base tuples by descending ``costβ``
  (minimum cost to push at least one result to β; tuples that cannot are
  penalised by ``cost_max / (F_max/β)``), so cheap, effective tuples are
  assigned deepest where they are explored most.
* **H2 — saturated-variable pruning**: if every result depending on the
  current tuple is already satisfied, larger values of that tuple are
  skipped (they only raise cost).
* **H3 — potential pruning**: if setting all *remaining* tuples to their
  maximum still cannot reach the requirement, do not descend.
* **H4 — cost-to-go pruning**: if the current cost plus the cheapest
  possible single δ-step among remaining tuples already reaches the
  incumbent (and we are not yet satisfied), do not descend.

With monotone lineage and increasing cost functions every rule is sound,
so the returned plan is cost-optimal; an exhausted node or time budget
degrades gracefully to the best incumbent (``stats.completed = False``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from ..errors import IncrementError
from ..storage.tuples import TupleId
from .problem import (
    IncrementPlan,
    IncrementProblem,
    SearchState,
    SolverStats,
    UndoToken,
)
from .runtime import Budget, budget_exceeded, run_frame

__all__ = ["HeuristicOptions", "solve_heuristic", "cost_beta"]

_EPS = 1e-9

logger = logging.getLogger(__name__)


@dataclass
class HeuristicOptions:
    """Knobs for the branch-and-bound solver.

    ``use_h1``–``use_h4`` correspond to the paper's Heuristics 1–4; the
    cost-bound pruning of the "Naive" configuration is always active.
    ``initial_upper_bound`` seeds the incumbent (Figure 11(d) passes the
    greedy solution's cost here).  ``node_limit``/``time_limit_seconds``
    bound the search for benchmarking; when hit, the best plan found so far
    is returned with ``stats.completed = False``.
    """

    use_h1: bool = True
    use_h2: bool = True
    use_h3: bool = True
    use_h4: bool = True
    initial_upper_bound: float | None = None
    node_limit: int | None = None
    time_limit_seconds: float | None = None

    @classmethod
    def naive(cls) -> "HeuristicOptions":
        """Only the incumbent cost bound (the paper's "Naive")."""
        return cls(use_h1=False, use_h2=False, use_h3=False, use_h4=False)

    @classmethod
    def only(cls, heuristic: str) -> "HeuristicOptions":
        """Exactly one of ``"h1".."h4"`` enabled (Figure 11(a) series)."""
        options = cls.naive()
        attribute = f"use_{heuristic.lower()}"
        if not hasattr(options, attribute):
            raise IncrementError(f"unknown heuristic {heuristic!r}")
        setattr(options, attribute, True)
        return options


def cost_beta(problem: IncrementProblem, tid: TupleId) -> float:
    """``costβ`` of a base tuple (Heuristics 1).

    The minimum cost, raising only this tuple, for at least one of its
    results to reach β.  When unreachable, the paper's penalty
    ``cost_max / (F_max / β)`` applies, ranking tuples by how far their
    best result stays from the threshold per unit of money.
    """
    state = problem.tuples[tid]
    assignment = problem.initial_assignment()
    best = math.inf
    f_max = 0.0
    for index in problem.results_by_slot[problem.slot_of[tid]]:
        result = problem.results[index]
        for value in state.levels(problem.delta):
            assignment[tid] = value
            confidence = result.evaluate(assignment)
            if problem.satisfied(confidence):
                best = min(best, state.cost_to(value))
                break
        assignment[tid] = state.maximum
        f_max = max(f_max, result.evaluate(assignment))
    if best < math.inf:
        return best
    cost_max = state.cost_to(state.maximum)
    if f_max <= 0.0:
        return math.inf
    return cost_max / (f_max / problem.threshold)


def solve_heuristic(
    problem: IncrementProblem,
    options: HeuristicOptions | None = None,
    budget: Budget | None = None,
) -> IncrementPlan:
    """Exact (given budget) branch-and-bound solution of *problem*.

    *budget* is an optional runtime :class:`~repro.increment.runtime.Budget`
    (e.g. a request deadline) enforced alongside the options' own
    ``node_limit``/``time_limit_seconds``.  On exhaustion the best-so-far
    incumbent is returned (``stats.budget_exhausted = True``); with no
    incumbent a :class:`~repro.errors.TimeBudgetExceeded` is raised.
    """
    options = options or HeuristicOptions()
    with run_frame("heuristic", problem, budget) as run:
        stats = run.stats
        plan = run.plan(*_solve(problem, options, stats, budget))
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "heuristic solved: cost=%.4f nodes=%d pruned bound=%d "
                "h2=%d h3=%d h4=%d completed=%s",
                plan.total_cost,
                stats.nodes_explored,
                stats.nodes_pruned_bound,
                stats.nodes_pruned_h2,
                stats.nodes_pruned_h3,
                stats.nodes_pruned_h4,
                stats.completed,
            )
        return plan


def _solve(
    problem: IncrementProblem,
    options: HeuristicOptions,
    stats: SolverStats,
    shared_budget: Budget | None = None,
) -> "tuple[dict[TupleId, float], float, tuple[int, ...]]":
    """The search: the best ``(targets, cost, satisfied indexes)`` found."""
    if problem.is_trivial():
        return {}, 0.0, SearchState(problem).satisfied_indexes()
    problem.check_feasible()

    order = list(range(len(problem.tids)))
    if options.use_h1:
        scores = [cost_beta(problem, tid) for tid in problem.tids]
        order.sort(key=lambda slot: (-scores[slot], slot))
        stats.h1_applied += 1
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "H1 ordering applied over %d tuples (costβ range %.4g..%.4g)",
                len(order),
                min(scores, default=0.0),
                max(scores, default=0.0),
            )

    # H4: cheapest single δ-step from initial among tuples at position ≥ j.
    states = list(problem.tuples.values())
    step_costs = [
        states[slot].cost_model.marginal_cost(states[slot].initial, problem.delta)
        for slot in order
    ]
    suffix_min_step = [math.inf] * (len(order) + 1)
    for position in range(len(order) - 1, -1, -1):
        suffix_min_step[position] = min(
            step_costs[position], suffix_min_step[position + 1]
        )

    state = SearchState(problem)
    # The options' own limits and any caller-supplied (request-level)
    # budget are enforced together: one charge() walks the parent chain.
    budget = Budget(
        deadline_seconds=options.time_limit_seconds,
        node_limit=options.node_limit,
        parent=shared_budget,
    )
    best_cost = (
        options.initial_upper_bound
        if options.initial_upper_bound is not None
        else math.inf
    )
    best_targets: dict[TupleId, float] | None = None
    best_satisfied: tuple[int, ...] = ()

    # H3 runs on a mirror state where every *unassigned* tuple sits at its
    # maximum: its satisfied count is exactly "what is still reachable from
    # here".  Assignments are mirrored into it incrementally, which makes
    # the H3 check O(affected results) per node instead of O(k · results).
    potential_state: SearchState | None = None
    if options.use_h3:
        potential_state = SearchState(problem)
        for slot in order:
            potential_state.commit(slot, problem.maximum[slot])

    def descend(position: int) -> None:
        nonlocal best_cost, best_targets, best_satisfied
        if budget.exhausted or position == len(order):
            return
        slot = order[position]
        affected = problem.results_by_slot[slot]
        for value_index, value in enumerate(problem.levels_of(slot)):
            if value_index > 0 and options.use_h2:
                if all(state.satisfied_flags[index] for index in affected):
                    stats.nodes_pruned_h2 += 1
                    break
            old_value = state.values[slot]
            undo = state.set_value(slot, value)
            potential_old = 0.0
            potential_undo: UndoToken = []
            if potential_state is not None:
                potential_old = potential_state.values[slot]
                potential_undo = potential_state.set_value(slot, value)

            def unwind() -> None:
                if potential_state is not None:
                    potential_state.undo(slot, potential_old, potential_undo)
                state.undo(slot, old_value, undo)

            if not budget.charge():
                unwind()
                return
            stats.nodes_explored += 1
            if state.cost >= best_cost - _EPS:
                stats.nodes_pruned_bound += 1
                unwind()
                break
            if state.is_satisfied():
                best_cost = state.cost
                best_targets = state.snapshot_targets()
                best_satisfied = state.satisfied_indexes()
                unwind()
                break
            prune = False
            if potential_state is not None and not potential_state.is_satisfied():
                stats.nodes_pruned_h3 += 1
                prune = True
            if (
                not prune
                and options.use_h4
                and state.cost + suffix_min_step[position + 1] >= best_cost - _EPS
            ):
                stats.nodes_pruned_h4 += 1
                prune = True
            if not prune:
                descend(position + 1)
            unwind()
            if budget.exhausted:
                return

    descend(0)

    stats.completed = not budget.exhausted
    stats.budget_exhausted = budget.exhausted
    if best_targets is None:
        if options.initial_upper_bound is not None and not budget.exhausted:
            raise IncrementError(
                "no solution at or below the supplied initial upper bound "
                f"{options.initial_upper_bound}"
            )
        raise budget_exceeded(
            "heuristic",
            problem,
            state,
            stats,
            message=(
                "branch-and-bound budget exhausted before any solution "
                "was found"
            ),
        )
    return best_targets, best_cost, best_satisfied
