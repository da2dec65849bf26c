#!/usr/bin/env python3
"""Performance trajectory: append harness runs to BENCH_*.json and gate CI.

The harness (``harness.py --json``) and the observability smoke
(``obs_smoke.py --json``) emit one machine-readable results file per run.
This tool normalizes those files into per-panel trajectory files at the
repo root — ``BENCH_tables.json``, ``BENCH_fig11be.json``, … — each an
append-only, schema-versioned series of runs, so the repository carries
its own performance history alongside the code.

Usage:
    python benchmarks/trajectory.py record results.json
        Append one run per panel found in *results.json* to the matching
        ``BENCH_<panel>.json`` (created if missing; pruned to the newest
        ``--keep`` runs).

    python benchmarks/trajectory.py check results.json
        Regression gate.  For every panel in *results.json* with a
        trajectory file, compare the candidate's panel wall-clock against
        the **median of prior runs recorded on a comparable environment**
        (same Python version/implementation/machine/profile).  Exit 1 if
        any panel is more than ``--threshold`` (default 15%) slower AND
        more than ``--min-slack`` (default 0.25 s) absolute seconds over
        the baseline — the absolute floor keeps millisecond-scale panels
        from flaking on scheduler jitter.  Panels with no comparable
        baseline pass with a note — a fresh runner fingerprint seeds a
        new baseline instead of flaking CI.

Medians (not minima) absorb one-off noise on shared runners; the
environment fingerprint keeps a fast dev machine's history from
masquerading as a baseline for a slow CI runner.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from datetime import datetime, timezone
from pathlib import Path

#: Layout version of BENCH_<panel>.json; bump on incompatible changes.
TRAJECTORY_SCHEMA_VERSION = 1

#: Environment keys that must match for two runs to be comparable.
FINGERPRINT_KEYS = (
    "python_version",
    "python_implementation",
    "machine",
    "full_profile",
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def fingerprint(environment: dict) -> tuple:
    """The comparability key of a run's environment block."""
    return tuple(environment.get(key) for key in FINGERPRINT_KEYS)


def trajectory_path(panel: str, bench_dir: Path) -> Path:
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in panel)
    return bench_dir / f"BENCH_{safe}.json"


def load_trajectory(path: Path) -> dict:
    if not path.exists():
        return {
            "trajectory_schema_version": TRAJECTORY_SCHEMA_VERSION,
            "panel": None,
            "runs": [],
        }
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    version = data.get("trajectory_schema_version")
    if version != TRAJECTORY_SCHEMA_VERSION:
        raise SystemExit(
            f"{path}: trajectory schema {version!r} unsupported "
            f"(this tool speaks {TRAJECTORY_SCHEMA_VERSION})"
        )
    return data


def load_results(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        results = json.load(handle)
    for key in ("schema_version", "environment", "panel_seconds"):
        if key not in results:
            raise SystemExit(f"{path}: not a harness --json file (no {key!r})")
    return results


#: harness panel name -> prefixes of the figure ids it records.
_PANEL_FIGURES: dict[str, tuple[str, ...]] = {
    "tables": ("tables",),
    "fig11a": ("fig11a",),
    "fig11d": ("fig11d",),
    "fig11be": ("fig11b", "fig11e"),
    "fig11cf": ("fig11c", "fig11f"),
    "ablations": ("ablation",),
    "obs": ("obs",),
    "exec": ("exec",),
    "serve": ("serve",),
    "chaos": ("chaos",),
    "repl": ("repl",),
}


def panel_series(results: dict, panel: str) -> dict:
    """The recorded series rows belonging to one panel, if any.

    Stored alongside wall-clock so the trajectory carries the figure
    *shapes* (orderings, crossovers), not just a single number.
    """
    prefixes = _PANEL_FIGURES.get(panel, (panel,))
    return {
        figure: rows
        for figure, rows in results.get("series", {}).items()
        if figure.split(" ")[0].startswith(prefixes)
    }


def cmd_record(args: argparse.Namespace) -> int:
    results = load_results(args.results)
    bench_dir = Path(args.bench_dir)
    recorded_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for panel, seconds in sorted(results["panel_seconds"].items()):
        path = trajectory_path(panel, bench_dir)
        trajectory = load_trajectory(path)
        trajectory["panel"] = panel
        trajectory["runs"].append(
            {
                "recorded_at": recorded_at,
                "environment": results["environment"],
                "results_schema_version": results["schema_version"],
                "panel_seconds": seconds,
                "series": panel_series(results, panel),
            }
        )
        trajectory["runs"] = trajectory["runs"][-args.keep :]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trajectory, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded {panel}: {seconds:.3f}s -> {path.name} "
              f"({len(trajectory['runs'])} run(s))")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    results = load_results(args.results)
    bench_dir = Path(args.bench_dir)
    candidate_print = fingerprint(results["environment"])
    failures: list[str] = []
    for panel, seconds in sorted(results["panel_seconds"].items()):
        path = trajectory_path(panel, bench_dir)
        if not path.exists():
            print(f"check {panel}: no trajectory file ({path.name}) — pass")
            continue
        trajectory = load_trajectory(path)
        comparable = [
            run["panel_seconds"]
            for run in trajectory["runs"]
            if fingerprint(run.get("environment", {})) == candidate_print
        ]
        if not comparable:
            print(
                f"check {panel}: no baseline for this environment "
                f"fingerprint — pass (record will seed one)"
            )
            continue
        baseline = statistics.median(comparable)
        # A relative threshold alone makes millisecond-scale panels flaky
        # (5 ms of scheduler jitter is 60% of an 8 ms panel), so the gate
        # also grants an absolute slack floor: a run only regresses when
        # it exceeds BOTH the relative limit and baseline + min-slack.
        limit = max(baseline * (1.0 + args.threshold),
                    baseline + args.min_slack)
        ratio = seconds / baseline if baseline > 0 else float("inf")
        verdict = "ok" if seconds <= limit else "REGRESSION"
        print(
            f"check {panel}: {seconds:.3f}s vs median {baseline:.3f}s "
            f"over {len(comparable)} run(s) ({ratio:.2f}x) — {verdict}"
        )
        if seconds > limit:
            failures.append(
                f"{panel}: {seconds:.3f}s > {limit:.3f}s "
                f"(median {baseline:.3f}s + {args.threshold:.0%}, "
                f"min slack {args.min_slack:.2f}s)"
            )
    if failures:
        print("performance regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("performance regression gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("record", cmd_record), ("check", cmd_check)):
        sub = subparsers.add_parser(name)
        sub.add_argument("results", help="a harness/obs_smoke --json file")
        sub.add_argument(
            "--bench-dir",
            default=str(REPO_ROOT),
            help="directory holding BENCH_<panel>.json (default: repo root)",
        )
        sub.set_defaults(handler=handler)
    subparsers.choices["record"].add_argument(
        "--keep",
        type=int,
        default=20,
        help="runs retained per trajectory file (default: 20)",
    )
    subparsers.choices["check"].add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed slowdown over the baseline median (default: 0.15)",
    )
    subparsers.choices["check"].add_argument(
        "--min-slack",
        type=float,
        default=0.25,
        help="absolute seconds of slowdown always tolerated, so "
        "millisecond-scale panels don't flake on scheduler jitter "
        "(default: 0.25)",
    )
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
