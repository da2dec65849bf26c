#!/usr/bin/env python3
"""Execution-engine benchmark: native (row-at-a-time) vs columnar.

Times the same optimized logical plans on both engines over synthetic
tables of 250..10^5 rows, asserting differential equivalence (identical
rows, lineage, confidences) before trusting any timing, and records one
``exec <workload>`` series row per (size, engine) pair.  The 250-row tier
and the aggregate/sort series are what justified deleting engine
selection: columnar must not lose where the old 512-row threshold and
the native-only operators used to keep plans on the native engine.

Usage:
    python benchmarks/exec_bench.py                      # text tables
    python benchmarks/exec_bench.py --json exec.json     # machine-readable
    python benchmarks/exec_bench.py --min-speedup 2.0    # CI gate: columnar
        must beat native by >= 2x on the scan/filter workload at the
        largest size, and must not lose (>= 1.0x) on the 250-row tier
        or on any aggregate/sort/join/predicate series row, else exit 1
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_common import (
    SCHEMA_VERSION,
    SERIES,
    environment_info,
    format_series,
    record,
)

from repro.engines import pick_engine
from repro.sql import plan_sql, run_sql
from repro.storage import Database, INTEGER, REAL, Schema, TEXT
from repro.workload import healthcare_database

SMALL_TIER = 250
SIZES = (SMALL_TIER, 1_000, 10_000, 100_000)
#: Best-of repeats per engine, interleaved; sub-millisecond tiers need
#: more samples for the minimum to settle.
REPEATS = {SMALL_TIER: 40, 1_000: 10}
DEFAULT_REPEATS = 3
#: Columnar is the only engine, so it may not lose to the reference on
#: the small tier or on the operators that used to be native-only.
PARITY_FLOOR = 1.0
#: Differential checks compare confidences only up to this result size —
#: beyond it, rows and lineage formulas are still compared exactly.
CONFIDENCE_CHECK_LIMIT = 20_000

WORKLOADS = {
    # Scan/filter-heavy: the columnar engine's best case (vectorized
    # predicate, deferred lineage for dropped rows).
    "scan_filter": "SELECT k, v FROM events WHERE v < 100",
    # Projection with arithmetic: per-row expression evaluation dominates.
    "project": "SELECT k, v * 2 + 1, x / 2.0 FROM events",
    # Equi hash join against a small dimension table.
    "join": (
        "SELECT e.k, d.label FROM events AS e "
        "JOIN dims AS d ON e.k = d.k WHERE e.v < 500"
    ),
    # Selective join: ~5 % of the left side survives its filter and meets
    # the whole same-sized right side, one partner each — what late
    # materialisation is for (the 50 % join above cannot see it).
    "selective_join": (
        "SELECT e.k, d.note FROM events AS e "
        "JOIN details AS d ON e.v = d.id WHERE e.v < 50"
    ),
    # Filtered join: both inputs filtered, one column projected — the
    # shape of the e2e ``ask.join-filtered`` class.  The right filter keeps
    # 12 of 13 rows and the join ~10 % of those; the columnar engine reads
    # each key column at its filter's rows and the projected column at the
    # matched rows only.
    "filtered_join": (
        "SELECT d.note FROM events AS e "
        "JOIN details AS d ON e.v = d.id "
        "WHERE e.x < 0.1 AND d.note <> 'note-0'"
    ),
    # A compound predicate: a column-vs-literal conjunct, then an OR of a
    # LIKE and a BETWEEN (OR's selection; neither side has its own), then
    # a NOT IN — each conjunct at the rows the one before it kept.
    "predicate": (
        "SELECT k, v FROM events WHERE v > 100 AND "
        "(k LIKE 'k1%' OR x BETWEEN 0.2 AND 0.4) AND v NOT IN (150, 250)"
    ),
    # Distinct + semijoin: duplicate merging and probe-side OR lineage.
    "distinct_semijoin": (
        "SELECT DISTINCT k FROM events WHERE k IN "
        "(SELECT k FROM dims WHERE tier > 1)"
    ),
    # Grouped aggregation: batched key/argument evaluation, OR lineage.
    "aggregate": (
        "SELECT k, COUNT(*), COUNT(DISTINCT v), SUM(v), AVG(x), MAX(x) "
        "FROM events GROUP BY k"
    ),
    # Multi-key sort (DESC + tie-break) over a filtered scan.
    "sort": "SELECT k, v FROM events WHERE v < 500 ORDER BY v DESC, k",
    # The shape Transfer insertion used to split across engines.
    "aggregate_over_join": (
        "SELECT d.label, COUNT(*), SUM(e.v) FROM events AS e "
        "JOIN dims AS d ON e.k = d.k WHERE e.v < 500 GROUP BY d.label"
    ),
}
#: Series held to the parity floor at every size, not just the small
#: tier: the operators that only run columnar because of the
#: Aggregate/Sort kernels, the joins, and the compound predicate.
PARITY_WORKLOADS = (
    "aggregate", "sort", "aggregate_over_join", "join", "selective_join",
    "filtered_join", "predicate",
)


#: Registry sizes of the small-table crossover series (EXPERIMENTS.md):
#: ≈ 2, 6, 10, 40 and 250 base rows at ~2.5 rows per patient.
CROSSOVER_PATIENTS = (1, 2, 4, 16, 100)
CROSSOVER_ROUNDS = 6
CROSSOVER_ASKS = 40


def build_db(size: int) -> Database:
    db = Database(f"exec-bench-{size}")
    events = db.create_table(
        "events", Schema.of(("k", TEXT), ("v", INTEGER), ("x", REAL))
    )
    for i in range(size):
        events.insert(
            [f"k{i % 97}", i % 1000, (i % 357) / 357.0],
            confidence=0.1 + (i % 80) / 100.0,
        )
    dims = db.create_table(
        "dims", Schema.of(("k", TEXT), ("label", TEXT), ("tier", INTEGER))
    )
    for i in range(97):
        dims.insert(
            [f"k{i}", f"group-{i % 7}", i % 4],
            confidence=0.2 + (i % 60) / 100.0,
        )
    details = db.create_table(
        "details", Schema.of(("id", INTEGER), ("note", TEXT))
    )
    for i in range(size):
        details.insert(
            [i, f"note-{i % 13}"], confidence=0.15 + (i % 70) / 100.0
        )
    return db


def assert_equivalent(db: Database, plan, check_confidences: bool) -> int:
    """Both engines must agree before a timing is worth recording."""
    native = pick_engine(plan, "native").execute()
    columnar = pick_engine(plan, "columnar").execute()
    native_rows = [(row.values, row.lineage) for row in native.rows]
    columnar_rows = [(row.values, row.lineage) for row in columnar.rows]
    if native_rows != columnar_rows:
        raise SystemExit(
            "differential equivalence FAILED: engines disagree on "
            f"rows/lineage ({len(native_rows)} vs {len(columnar_rows)} rows)"
        )
    if check_confidences and native.confidences(db) != columnar.confidences(db):
        raise SystemExit(
            "differential equivalence FAILED: confidences differ"
        )
    return len(native_rows)


def time_engines(plan, repeats: int) -> dict[str, float]:
    """Best-of-*repeats* seconds per engine, the two interleaved.

    The timed section is ``execute()`` plus reading ``result.rows``: the
    columnar engine hands over its root batch and builds rows (and any
    still-deferred lineage) on first read, so ``execute()`` alone would
    time its laziness against work the native engine has already done.
    Reading the native result's list costs nothing, so the series stays
    comparable with the rows recorded before rows were built on demand.
    """
    prepared = {mode: pick_engine(plan, mode) for mode in ("native", "columnar")}
    best = dict.fromkeys(prepared, float("inf"))
    for _ in range(repeats):
        for mode, plan_on_engine in prepared.items():
            started = time.perf_counter()
            len(plan_on_engine.execute().rows)
            best[mode] = min(best[mode], time.perf_counter() - started)
    return best


def run_crossover() -> None:
    """Whole-statement latency on tiny tables, where the deleted 512-row
    threshold used to pick native: parse → plan → optimize → execute →
    confidences of the benchmark's point-ask mix (1 point filter : 3
    one-patient joins), engines interleaved, median over all rounds."""
    for patients in CROSSOVER_PATIENTS:
        db = healthcare_database(patients=patients, seed=7).db
        rng = random.Random(patients)
        statements = []
        for i in range(CROSSOVER_ASKS):
            pid = f"P{rng.randrange(patients):04d}"
            statements.append(
                f"SELECT PatientId, Diagnosis, Stage FROM Patients "
                f"WHERE PatientId = '{pid}'"
                if i % 4 == 0
                else f"SELECT p.PatientId, t.Treatment, t.ResponseRate "
                f"FROM Patients p JOIN Treatments t "
                f"ON p.PatientId = t.PatientId WHERE p.PatientId = '{pid}'"
            )
        samples: dict[str, list[float]] = {"native": [], "columnar": []}
        for round_index in range(CROSSOVER_ROUNDS + 1):
            modes = list(samples)
            if round_index % 2:
                modes.reverse()
            for sql in statements:
                replies = {}
                for mode in modes:
                    started = time.perf_counter()
                    result = run_sql(db, sql, engine=mode)
                    confidences = result.confidences(db)
                    elapsed = time.perf_counter() - started
                    replies[mode] = (
                        [(row.values, row.lineage) for row in result.rows],
                        confidences,
                    )
                    if round_index:  # round 0 warms caches, untimed
                        samples[mode].append(elapsed)
                if replies["native"] != replies["columnar"]:
                    raise SystemExit(
                        f"differential equivalence FAILED on {sql!r}"
                    )
        native_ms = statistics.median(samples["native"]) * 1e3
        columnar_ms = statistics.median(samples["columnar"]) * 1e3
        record(
            "exec crossover",
            base_rows=sum(len(table) for table in db.tables()),
            statements=len(samples["native"]),
            native_p50_ms=round(native_ms, 4),
            columnar_p50_ms=round(columnar_ms, 4),
            columnar_minus_native_ms=round(columnar_ms - native_ms, 4),
            speedup=round(native_ms / columnar_ms, 2),
        )


def run(args) -> dict[str, dict[int, dict[str, float]]]:
    timings: dict[str, dict[int, dict[str, float]]] = {}
    for size in SIZES:
        print(f"building database ({size} rows) ...", file=sys.stderr)
        db = build_db(size)
        for workload, sql in WORKLOADS.items():
            plan = plan_sql(db, sql)
            result_rows = assert_equivalent(
                db, plan, check_confidences=size <= CONFIDENCE_CHECK_LIMIT
            )
            row = time_engines(plan, REPEATS.get(size, DEFAULT_REPEATS))
            speedup = row["native"] / row["columnar"]
            timings.setdefault(workload, {})[size] = row
            record(
                f"exec {workload}",
                rows=size,
                result_rows=result_rows,
                native_s=round(row["native"], 6),
                columnar_s=round(row["columnar"], 6),
                speedup=round(speedup, 2),
            )
    return timings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write series + metrics snapshot + environment as JSON",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless columnar beats native by >= X on the "
        "scan_filter workload at the largest size (and does not lose on "
        "the 250-row tier or the aggregate/sort/join/predicate series)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    run_crossover()
    timings = run(args)
    panel_seconds = time.perf_counter() - started
    print(format_series())

    if args.json:
        from repro.obs import get_metrics

        payload = {
            "schema_version": SCHEMA_VERSION,
            "environment": environment_info(),
            "panel_seconds": {"exec": panel_seconds},
            "series": dict(SERIES),
            "metrics": get_metrics().snapshot(),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)

    if args.min_speedup is not None:
        largest = max(SIZES)
        row = timings["scan_filter"][largest]
        speedup = row["native"] / row["columnar"]
        if speedup < args.min_speedup:
            print(
                f"speedup gate FAILED: columnar {speedup:.2f}x native on "
                f"scan_filter@{largest} (required >= "
                f"{args.min_speedup:.2f}x)",
                file=sys.stderr,
            )
            return 1
        print(
            f"speedup gate passed: columnar {speedup:.2f}x native on "
            f"scan_filter@{largest}",
            file=sys.stderr,
        )
        losses = [
            f"{workload}@{size} ({row['native'] / row['columnar']:.2f}x)"
            for workload, by_size in timings.items()
            for size, row in by_size.items()
            if (size == SMALL_TIER or workload in PARITY_WORKLOADS)
            and row["native"] / row["columnar"] < PARITY_FLOOR
        ]
        if losses:
            print(
                f"parity gate FAILED: columnar below {PARITY_FLOOR:.1f}x "
                f"native on {', '.join(losses)}",
                file=sys.stderr,
            )
            return 1
        print(
            f"parity gate passed: columnar >= {PARITY_FLOOR:.1f}x native on "
            f"the {SMALL_TIER}-row tier and every "
            f"{'/'.join(PARITY_WORKLOADS)} row",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
