#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of ``ask``/DML over the wire.

One command builds the system under test (a durable primary with one
semi-sync replica, in a child process), drives a seeded closed-loop
workload at it over loopback sockets, checks every reply against an
in-process oracle, and prints every metric by name with its unit:

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload point-ask-250 --seed 3
    python3 benchmarks/e2e/run.py --trace 1 --workload write-dml-10k
    python3 benchmarks/e2e/run.py --repeat 5 --out a.json
    python3 benchmarks/e2e/run.py --compare a.json b.json
    python3 benchmarks/e2e/run.py --smoke

The last line of standard output of each workload run is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (the contract in
``BENCHMARK.json``); the exit code is non-zero when any check failed.
See ``README.md`` in this directory for the protocol.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys

from harness import BENCHMARK, END_TO_END, PER_LAYER, RunResult, timed_run
from measure import spread
from traced import traced_run
from workloads import SMOKE_PATIENTS, WORKLOADS

SCHEMA_VERSION = 1
#: End-to-end metrics printed, recorded and compared here but not gated
#: by the driver (so not in BENCHMARK.json): the driver wants every gated
#: metric on every workload and never 0, which rules out the write-only
#: ones and ``failed_share``; ``ask_p95_ms`` could not hold a bound on
#: this sandbox (README, "bounds") and is demoted.
UNGATED = {
    "ask_p95_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "dml_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "dml_p95_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "wal_bytes_per_commit": {"unit": "B", "better": "lower", "bound": 0.01},
}


# ---------------------------------------------------------------------------
# Reporting, results files, --compare
# ---------------------------------------------------------------------------


def print_result(result: RunResult) -> None:
    print(f"== {result.workload}  seed={result.seed}  "
          f"attempted={result.attempted}  failed={result.failed}  "
          f"schedule={result.digest[:12]}")
    for title, table in (("metric", result.metrics),
                         ("informational", result.informational)):
        if not table:
            continue
        print(f"  {title:<44} {'value':>14} {'unit':<6} {'samples':>8}")
        for name, metric in table.items():
            print(f"  {name:<44} {metric.value:>14.4f} {metric.unit:<6} "
                  f"{metric.samples:>8}")
    for problem in result.problems[:20]:
        print(f"  FAILED: {problem}")
    if len(result.problems) > 20:
        print(f"  ... and {len(result.problems) - 20} more")


def results_document(runs: "list[RunResult]", seconds: float) -> dict:
    by_workload: "dict[str, list[dict]]" = {}
    for run in runs:
        by_workload.setdefault(run.workload, []).append({
            "seed": run.seed,
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "schedule_digest": run.digest,
            "metrics": {k: m.as_json() for k, m in run.metrics.items()},
            "informational": {
                k: m.as_json() for k, m in run.informational.items()
            },
            "slices": run.slices,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "seconds": seconds,
        "workloads": by_workload,
    }


def compare(path_a: str, path_b: str) -> int:
    """A/B table per workload × end-to-end metric; 1 if any regressed."""
    with open(path_a, encoding="utf-8") as handle:
        side_a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        side_b = json.load(handle)["workloads"]
    gated = {**END_TO_END, **UNGATED}
    regressed = False
    print(f"{'workload':<18} {'metric':<22} {'a (median)':>12} "
          f"{'b (median)':>12} {'b vs a':>8} {'bound':>6} {'spread':>7}  verdict")
    for workload in side_a:
        if workload not in side_b:
            continue
        for name, spec in gated.items():
            a = [run["metrics"][name]["value"] for run in side_a[workload]
                 if name in run["metrics"]]
            b = [run["metrics"][name]["value"] for run in side_b[workload]
                 if name in run["metrics"]]
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / median_a
            worse = change if spec["better"] == "lower" else -change
            noise = max(spread(a), spread(b))
            b_always_better = (
                max(b) < min(a) if spec["better"] == "lower" else min(b) > max(a)
            )
            if worse > spec["bound"]:
                verdict = "regressed"
                regressed = True
            elif noise > spec["bound"] and not b_always_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<18} {name:<22} {median_a:>12.4f} "
                  f"{median_b:>12.4f} {change:>+8.1%} {spec['bound']:>6.2f} "
                  f"{noise:>7.1%}  {verdict}")
        for label, side in (("a", side_a), ("b", side_b)):
            failed = sum(run["failed"] for run in side[workload])
            if failed or not all(run["correct"] for run in side[workload]):
                print(f"{workload:<18} failed ops/checks on side {label}: "
                      f"{failed}  regressed")
                regressed = True
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="op-schedule seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float,
                        default=float(BENCHMARK["run_seconds"]),
                        help="timed window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics) instead")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED, SEED+1, …")
    parser.add_argument("--out", help="write every run's metrics to this JSON")
    parser.add_argument("--append", action="store_true",
                        help="add the runs to an existing --out file "
                             "(for interleaving the two sides of an A/B)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 1.5 s windows, timed + traced, ~20 s")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files; no benchmark is run")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    names = args.workload or list(WORKLOADS)
    modes = (0, 1) if args.smoke else (args.trace,)
    # --smoke: tiny registry, one set-up, short lead-in, window and replay.
    seconds = 1.5 if args.smoke else args.seconds
    timed_args = (1, 0.3) if args.smoke else ()
    traced_args = (20,) if args.smoke else ()
    runs: "list[RunResult]" = []
    for name in names:
        workload = WORKLOADS[name]
        if args.smoke:
            workload = dataclasses.replace(workload, patients=SMOKE_PATIENTS)
        for repeat in range(args.repeat):
            for mode in modes:
                seed = args.seed + repeat
                if mode:
                    result = traced_run(workload, seed, *traced_args)
                else:
                    result = timed_run(workload, seed, seconds, *timed_args)
                runs.append(result)
                print_result(result)
                print(result.contract_line(PER_LAYER if mode else END_TO_END))
                sys.stdout.flush()
    if args.out:
        document = results_document(runs, seconds)
        if args.append and os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                earlier = json.load(handle)["workloads"]
            for name, entries in document["workloads"].items():
                earlier.setdefault(name, []).extend(entries)
            document["workloads"] = earlier
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 0 if all(run.correct for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
