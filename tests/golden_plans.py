"""Golden solver plans: the instances, the solver line-up and the recorder.

``tests/golden_plans.json`` holds, for every ``(case, solver)`` pair below,
the plan the solvers produced at the commit *before* the increment layer
moved onto dense tuple slots.  ``tests/unit/test_golden_plans.py`` re-solves
every pair and compares with ``==`` — floats included — so any change to an
evaluation order, a cost subtraction, a tie-break or a stall guard shows up
as a diff, not as a tolerance.  Only interfaces that predate the port are
used here, which is what lets the same file run on both sides of it.

Re-record (only when a solver's *decisions* are meant to change)::

    PYTHONPATH=src python -m tests.golden_plans
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator

from repro.cost import BinomialCost, ExponentialCost, LinearCost
from repro.increment import (
    BaseTupleState,
    DncOptions,
    GreedyOptions,
    HeuristicOptions,
    IncrementPlan,
    IncrementProblem,
    LocalSearchOptions,
    solve_dnc,
    solve_greedy,
    solve_heuristic,
    solve_local_search,
)
from repro.lineage import ConfidenceFunction, lineage_and, lineage_or, var
from repro.policy import PolicyEvaluator
from repro.sql import execute_sql, run_sql
from repro.storage import TupleId
from repro.workload import WorkloadSpec, generate_problem, healthcare_database

GOLDEN_PATH = Path(__file__).with_name("golden_plans.json")

Solver = Callable[[IncrementProblem], IncrementPlan]


def _greedy(recompute: str, scope: str, two_phase: bool) -> Solver:
    options = GreedyOptions(
        two_phase=two_phase, gain_scope=scope, recompute=recompute
    )
    return lambda problem: solve_greedy(problem, options)


GREEDY_INCREMENTAL: dict[str, Solver] = {
    f"greedy-incremental-{scope}-{'two' if two_phase else 'one'}": _greedy(
        "incremental", scope, two_phase
    )
    for scope in ("unsatisfied", "all")
    for two_phase in (True, False)
}
GREEDY_FULL: dict[str, Solver] = {
    f"greedy-full-{scope}-{'two' if two_phase else 'one'}": _greedy(
        "full", scope, two_phase
    )
    for scope in ("unsatisfied", "all")
    for two_phase in (True, False)
}
APPROXIMATE: dict[str, Solver] = {
    "dnc": lambda problem: solve_dnc(problem, DncOptions()),
    "dnc-paper": lambda problem: solve_dnc(
        problem, DncOptions(allocation="paper", tau=8)
    ),
    "local-search": lambda problem: solve_local_search(
        problem, LocalSearchOptions(seed=11, restarts=2, swap_attempts=150)
    ),
}
EXACT: dict[str, Solver] = {
    "heuristic": solve_heuristic,
    "heuristic-naive": lambda problem: solve_heuristic(
        problem, HeuristicOptions.naive()
    ),
}


def scalability_problem(size: int, seed: int = 42) -> IncrementProblem:
    """``benchmarks/_bench_common.scalability_problem`` (Table 4 defaults)."""
    spec = WorkloadSpec(
        data_size=size,
        tuples_per_result=5 if size >= 5 else 2,
        threshold=0.6,
        theta=0.5,
    )
    return generate_problem(spec, seed=seed).problem


def exact_problem() -> IncrementProblem:
    """Small enough for branch-and-bound without H1–H4."""
    spec = WorkloadSpec(
        data_size=8,
        tuples_per_result=4,
        theta=0.6,
        threshold=0.5,
        delta=0.15,
        or_bias=0.7,
    )
    return generate_problem(spec, seed=3).problem


def multi_group_problem() -> IncrementProblem:
    """Three overlapping requirement groups over one generated instance."""
    base = scalability_problem(150, seed=5)
    count = len(base.results)
    groups = [
        (range(0, count // 2), count // 6),
        (range(count // 3, count), count // 5),
        (range(0, count, 3), 3),
    ]
    return IncrementProblem(
        base.results,
        base.tuples,
        base.threshold,
        delta=base.delta,
        requirement_groups=groups,
    ).clamped_to_achievable()


def private_pool_problem() -> IncrementProblem:
    """Every result compiled into a pool of its own."""
    base = scalability_problem(120, seed=9)
    results = [
        ConfidenceFunction(result.formula, result.label)
        for result in base.results
    ]
    return IncrementProblem(
        results, base.tuples, base.threshold, base.required_count, base.delta
    )


def capped_problem() -> IncrementProblem:
    """Caps off the δ-grid, initial values off any round number, and a
    Shannon-expanded (non-read-once) result."""
    tids = [TupleId("cap", ordinal) for ordinal in range(6)]
    models = [
        LinearCost(40.0, max_confidence=0.87),
        BinomialCost(30.0, 90.0, max_confidence=0.93),
        ExponentialCost(9.0, 3.5, max_confidence=1.0),
        LinearCost(55.0, max_confidence=0.615),
        BinomialCost(60.0, 100.0, max_confidence=0.77),
        LinearCost(25.0, max_confidence=0.999),
    ]
    initials = [0.13, 0.2718, 0.05, 0.31, 0.0999, 0.4242]
    tuples = {
        tid: BaseTupleState(tid, initial, model)
        for tid, initial, model in zip(tids, initials, models)
    }
    a, b, c, d, e, f = (var(tid) for tid in tids)
    formulas = [
        lineage_and(a, b),
        lineage_or(lineage_and(a, c), lineage_and(b, c)),
        lineage_or(lineage_and(a, b), lineage_and(b, d), lineage_and(a, d)),
        lineage_and(e, lineage_or(c, f)),
        lineage_or(d, e),
        f,
    ]
    results = [
        ConfidenceFunction(formula, f"λ{index}")
        for index, formula in enumerate(formulas)
    ]
    return IncrementProblem(results, tuples, 0.58, required_count=4, delta=0.1)


#: The ``improve-ask-2.5k`` ask over patients P0000–P0199.
IMPROVE_ASK_SQL = (
    "SELECT p.PatientId, t.Treatment, t.ResponseRate "
    "FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId "
    "WHERE p.PatientId >= 'P0000' AND p.PatientId < 'P0200'"
)


def improve_ask_scenario():
    """A registry of 1 000 patients (seed 7) with patients P0000–P0199
    reset to confidence 0.1, as the ``improve-ask-2.5k`` workload leaves
    a slice before its ask."""
    scenario = healthcare_database(1000, seed=7)
    for table in ("Patients", "Treatments"):
        execute_sql(
            scenario.db,
            f"UPDATE {table} SET Source = Source "
            "WHERE PatientId >= 'P0000' AND PatientId < 'P0200' "
            "WITH CONFIDENCE 0.1",
        )
    return scenario


def improve_ask_slice() -> IncrementProblem:
    """One ask of the ``improve-ask-2.5k`` benchmark workload
    (:func:`improve_ask_scenario`), β 0.75, required fraction 0.5."""
    db = improve_ask_scenario().db
    result = run_sql(db, IMPROVE_ASK_SQL)
    outcome = PolicyEvaluator.apply_threshold(result, db, 0.75)
    return IncrementProblem.from_results(
        [row.lineage for row, _confidence in outcome.withheld],
        db,
        threshold=min(1.0, 0.75 + 1e-6),
        required_count=outcome.shortfall(0.5),
    )


#: case name -> (instance builder, solvers run on it, in this order, on the
#: same problem object — so later solvers see the earlier ones' warm caches).
CASES: dict[str, tuple[Callable[[], IncrementProblem], dict[str, Solver]]] = {
    "exact-8": (exact_problem, {**EXACT, **GREEDY_INCREMENTAL, **APPROXIMATE}),
    "scalability-10": (
        lambda: scalability_problem(10),
        {**GREEDY_INCREMENTAL, **GREEDY_FULL, **APPROXIMATE},
    ),
    "scalability-200": (
        lambda: scalability_problem(200),
        {**GREEDY_INCREMENTAL, **GREEDY_FULL, **APPROXIMATE},
    ),
    "scalability-1000": (
        lambda: scalability_problem(1000),
        {**GREEDY_INCREMENTAL, "dnc": APPROXIMATE["dnc"]},
    ),
    "multi-group": (
        multi_group_problem,
        {**GREEDY_INCREMENTAL, **GREEDY_FULL, **APPROXIMATE},
    ),
    "private-pools": (
        private_pool_problem,
        {**GREEDY_INCREMENTAL, **APPROXIMATE},
    ),
    "capped-off-grid": (
        capped_problem,
        {**GREEDY_INCREMENTAL, **GREEDY_FULL, **EXACT, **APPROXIMATE},
    ),
    "improve-ask-slice": (
        improve_ask_slice,
        {**GREEDY_INCREMENTAL, "dnc": APPROXIMATE["dnc"]},
    ),
}


def plan_record(plan: IncrementPlan) -> dict:
    """What must not move: the decisions and the counts that drove them."""
    return {
        "targets": {str(tid): value for tid, value in sorted(plan.targets.items())},
        "total_cost": plan.total_cost,
        "satisfied_results": list(plan.satisfied_results),
        "gain_evaluations": plan.stats.gain_evaluations,
        "phase2_reductions": plan.stats.phase2_reductions,
        "nodes_explored": plan.stats.nodes_explored,
        "swap_moves": plan.stats.swap_moves,
    }


def solve_case(name: str) -> Iterator[tuple[str, dict]]:
    build, solvers = CASES[name]
    problem = build()
    for solver_name, solve in solvers.items():
        yield solver_name, plan_record(solve(problem))


def main() -> None:
    golden = {name: dict(solve_case(name)) for name in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    pairs = sum(len(records) for records in golden.values())
    print(f"recorded {pairs} plans over {len(golden)} cases -> {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
