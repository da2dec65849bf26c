#!/usr/bin/env python3
"""Standalone reproduction harness: regenerate every paper table/figure.

Runs the same workloads as the pytest-benchmark files but as a plain
script, printing one text table per figure panel — convenient for filling
in EXPERIMENTS.md or eyeballing shapes without pytest.

Usage:
    python benchmarks/harness.py                 # scaled-down default profile
    REPRO_BENCH_FULL=1 python benchmarks/harness.py   # paper-scale sizes
    python benchmarks/harness.py --only fig11a fig11e
    python benchmarks/harness.py --json results.json  # machine-readable output
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_common import (
    GREEDY_FULL_MAX_SIZE,
    GREEDY_SIZES,
    HEURISTIC_MAX_SIZE,
    SCALE_SIZES,
    SCHEMA_VERSION,
    environment_info,
    format_series,
    greedy_sweep_problem,
    heuristic_problem,
    record,
    scalability_problem,
)

from repro.increment import (
    DncOptions,
    GreedyOptions,
    HeuristicOptions,
    IncrementProblem,
    PartitionOptions,
    solve_dnc,
    solve_greedy,
    solve_heuristic,
)
from repro.lineage import lineage_and, lineage_or, probability, var
from repro.workload import venture_capital_database


def run_tables(_args) -> None:
    """Tables 1-3 / §3.1 exact numbers."""
    scenario = venture_capital_database()
    from repro.sql import run_sql

    result = run_sql(scenario.db, scenario.QUERY)
    confidences = {
        row.values[0]: confidence
        for row, confidence in result.with_confidences(scenario.db)
    }
    record(
        "tables 1-3 (running example)",
        quantity="p38",
        paper=0.058,
        measured=round(confidences["BlueRiver"], 6),
    )
    t02 = scenario.proposal_ids["02"]
    t03 = scenario.proposal_ids["03"]
    t13 = scenario.company_ids["13"]
    lineage = lineage_and(lineage_or(var(t02), var(t03)), var(t13))
    base = scenario.db.confidences([t02, t03, t13])
    record(
        "tables 1-3 (running example)",
        quantity="p38 after raising p02 to 0.4",
        paper=0.064,
        measured=round(probability(lineage, {**base, t02: 0.4}), 6),
    )
    record(
        "tables 1-3 (running example)",
        quantity="p38 after raising p03 to 0.5",
        paper=0.065,
        measured=round(probability(lineage, {**base, t03: 0.5}), 6),
    )
    problem = IncrementProblem.from_results(
        [lineage], scenario.db, threshold=0.06, required_count=1
    )
    record(
        "tables 1-3 (running example)",
        quantity="optimal increment cost",
        paper=10.0,
        measured=solve_heuristic(problem).total_cost,
    )


def run_fig11a(_args) -> None:
    problem = heuristic_problem()
    configurations = {
        "Naive": HeuristicOptions.naive(),
        "H1": HeuristicOptions.only("h1"),
        "H2": HeuristicOptions.only("h2"),
        "H3": HeuristicOptions.only("h3"),
        "H4": HeuristicOptions.only("h4"),
        "All": HeuristicOptions(),
    }
    for name, options in configurations.items():
        plan = solve_heuristic(problem, options)
        record(
            "fig11a (heuristic, no greedy bound)",
            configuration=name,
            seconds=plan.stats.elapsed_seconds,
            nodes=plan.stats.nodes_explored,
            cost=plan.total_cost,
        )


def run_fig11d(_args) -> None:
    problem = heuristic_problem()
    bound = solve_greedy(problem).total_cost + 1e-6
    configurations = {
        "Naive": HeuristicOptions.naive(),
        "H1": HeuristicOptions.only("h1"),
        "H2": HeuristicOptions.only("h2"),
        "H3": HeuristicOptions.only("h3"),
        "H4": HeuristicOptions.only("h4"),
        "All": HeuristicOptions(),
    }
    for name, options in configurations.items():
        options.initial_upper_bound = bound
        plan = solve_heuristic(problem, options)
        record(
            "fig11d (heuristic, greedy bound)",
            configuration=name,
            seconds=plan.stats.elapsed_seconds,
            nodes=plan.stats.nodes_explored,
            cost=plan.total_cost,
        )


def run_fig11b_e(_args) -> None:
    for size in GREEDY_SIZES:
        problem = greedy_sweep_problem(size)
        one = solve_greedy(
            problem, GreedyOptions(two_phase=False, gain_scope="all")
        )
        two = solve_greedy(
            problem, GreedyOptions(two_phase=True, gain_scope="all")
        )
        record(
            "fig11b (greedy response time)",
            data_size=size,
            one_phase_s=one.stats.elapsed_seconds,
            two_phase_s=two.stats.elapsed_seconds,
        )
        reduction = (
            0.0
            if one.total_cost == 0
            else 100.0 * (one.total_cost - two.total_cost) / one.total_cost
        )
        record(
            "fig11e (greedy cost)",
            data_size=size,
            one_phase_cost=one.total_cost,
            two_phase_cost=two.total_cost,
            reduction_pct=reduction,
        )


def run_fig11c_f(_args) -> None:
    for size in SCALE_SIZES:
        problem = scalability_problem(size)
        plans = {}
        if size <= HEURISTIC_MAX_SIZE:
            plans["Heuristic"] = solve_heuristic(problem)
        if size <= GREEDY_FULL_MAX_SIZE:
            plans["Greedy"] = solve_greedy(
                problem, GreedyOptions(recompute="full")
            )
        plans["D&C"] = solve_dnc(
            problem, DncOptions(greedy=GreedyOptions(recompute="full"))
        )
        for name, plan in plans.items():
            record(
                "fig11c (scalability: response time)",
                data_size=size,
                algorithm=name,
                seconds=plan.stats.elapsed_seconds,
            )
            record(
                "fig11f (scalability: cost)",
                data_size=size,
                algorithm=name,
                cost=plan.total_cost,
            )


def run_ablations(_args) -> None:
    problem = scalability_problem(1000)
    for gamma in (0.5, 1.0, 2.0, 4.0, 8.0):
        plan = solve_dnc(
            problem, DncOptions(partition=PartitionOptions(gamma=gamma))
        )
        record(
            "ablation (D&C gamma)",
            gamma=gamma,
            groups=plan.stats.groups,
            cost=plan.total_cost,
            seconds=plan.stats.elapsed_seconds,
        )


PANELS = {
    "tables": run_tables,
    "fig11a": run_fig11a,
    "fig11d": run_fig11d,
    "fig11be": run_fig11b_e,
    "fig11cf": run_fig11c_f,
    "ablations": run_ablations,
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        nargs="*",
        choices=sorted(PANELS),
        help="run only the listed panels (default: all)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write series + metrics snapshot + environment as JSON",
    )
    args = parser.parse_args(argv)
    chosen = args.only or list(PANELS)
    panel_seconds: dict[str, float] = {}
    for name in chosen:
        started = time.perf_counter()
        print(f"running {name} ...", file=sys.stderr)
        PANELS[name](args)
        panel_seconds[name] = time.perf_counter() - started
        print(f"  {name} done in {panel_seconds[name]:.1f}s", file=sys.stderr)
    print(format_series())
    if args.json:
        from repro.obs import get_metrics

        from _bench_common import SERIES

        payload = {
            "schema_version": SCHEMA_VERSION,
            "environment": environment_info(),
            "panel_seconds": panel_seconds,
            "series": dict(SERIES),
            "metrics": get_metrics().snapshot(),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)


if __name__ == "__main__":
    main()
