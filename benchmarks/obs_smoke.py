#!/usr/bin/env python3
"""Observability smoke: audit journal, OpenMetrics exposition, overhead.

CI's ``obs-smoke`` job runs this end-to-end check of the PR's telemetry
surface against the paper's running example plus a generated workload:

1. **Audited asks** — execute policy-compliant queries with a decision
   audit journal attached; every released/blocked verdict, lineage set,
   and increment write-back lands in the WAL-framed log.
2. **Byte-identical replay** — re-read the journal from disk, rebuild
   every decision record through the explain layer, and require the
   canonical re-encoding to match the journaled bytes exactly.
3. **Explain determinism** — ``explain_decision`` twice over fresh reads
   must produce identical text.
4. **Strict OpenMetrics** — render the registry and round-trip it through
   the strict parser (histogram monotonicity, ``# EOF``, name grammar).
5. **Overhead gate** — the audit hooks must cost at most
   ``--max-hook-ms`` (default 3.0) milliseconds per ask on a
   fig11-profile workload, with the cyclic garbage collector disabled
   while timing.  Measured intrusively: the audited run accumulates wall
   time inside the audit hooks, median over ``--trials`` runs (see
   :func:`measure_overhead` for why A/B subtraction cannot work here).
   The hooks' share of the plain serving time is reported, not gated:
   its denominator is mostly the greedy solve, so it moves whenever the
   solver does (docs/OBSERVABILITY.md).

Exit code 0 only if every check passes.  ``--json`` writes a harness-
compatible results file (panel ``obs``) for ``trajectory.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_common import SCHEMA_VERSION, environment_info, record, SERIES

from repro import PCQEngine, QueryRequest
from repro.core.framework import make_solver
from repro.obs import (
    MetricsRegistry,
    get_metrics,
    parse_openmetrics,
    render_openmetrics,
    set_metrics,
)
from repro.obs.audit import (
    AuditLog,
    build_trails,
    explain_decision,
    read_audit_log,
    reconstruct_decisions,
)
from repro.obs.audit.log import _crc32 as _audit_crc, _encode
from repro.storage.durability.wal import scan_wal
from repro.workload import healthcare_database, venture_capital_database

ASKS = (
    # (user, purpose, required_fraction) over the §3.1 running example.
    ("bob", "investment", 1.0),
    ("bob", "investment", 0.5),
    ("alice", "analysis", 1.0),
)


def fresh_engine(audit: AuditLog | None) -> PCQEngine:
    scenario = venture_capital_database()
    return PCQEngine(
        scenario.db, scenario.policies, solver="heuristic", audit=audit
    )


def run_asks(engine: PCQEngine) -> list:
    scenario_query = venture_capital_database().QUERY
    replies = []
    for user, purpose, fraction in ASKS:
        replies.append(
            engine.execute(
                QueryRequest(
                    scenario_query, purpose=purpose, required_fraction=fraction
                ),
                user=user,
            )
        )
    return replies


def check_audit_replay(audit_path: Path) -> tuple[int, int]:
    """Byte-identical replay of every record in the journal.

    Two layers: every on-disk WAL frame must equal the canonical
    re-encoding of its parsed batch (parse → encode is lossless down to
    the byte), and the explain layer's per-decision reconstruction must
    match the canonical per-record documents.
    """
    records = read_audit_log(audit_path)
    if not records:
        raise SystemExit("FAIL: audit journal is empty after audited asks")
    scan = scan_wal(audit_path, checksum=_audit_crc)
    for index, payload in enumerate(scan.payloads):
        batch = json.loads(payload.decode("utf-8"))
        rebuilt = b"[" + b",".join(_encode(entry) for entry in batch) + b"]"
        if rebuilt != payload:
            raise SystemExit(
                f"FAIL: frame {index} re-encoding differs from disk bytes"
            )
    trails = build_trails(records)
    if len(trails) != len(ASKS):
        raise SystemExit(
            f"FAIL: {len(trails)} audited queries, expected {len(ASKS)}"
        )
    checked = 0
    for query_id in sorted(trails):
        replayed = reconstruct_decisions(records, query_id)
        original = [
            json.dumps(entry, sort_keys=True, separators=(",", ":")).encode()
            for entry in records
            if entry.get("kind") == "decision"
            and entry.get("query_id") == query_id
        ]
        if replayed != original:
            raise SystemExit(
                f"FAIL: replay of {query_id} is not byte-identical "
                f"({len(replayed)} vs {len(original)} records)"
            )
        checked += len(replayed)
    return len(trails), checked


def check_explain_determinism(audit_path: Path) -> None:
    first = explain_decision(read_audit_log(audit_path), "q1", "t0")
    second = explain_decision(read_audit_log(audit_path), "q1", "t0")
    if first != second:
        raise SystemExit("FAIL: explain_decision is not deterministic")
    if "policy=⟨" not in first or "lineage" not in first:
        raise SystemExit(
            "FAIL: explanation lacks policy triple or lineage lines:\n"
            + first
        )


def check_openmetrics() -> int:
    text = render_openmetrics(get_metrics())
    families = parse_openmetrics(text)  # raises code OpenMetricsParseError
    expected = (
        "pcqe_ask_latency_seconds",
        "audit_records",
        "policy_rows_evaluated",
    )
    for name in expected:
        if name not in families:
            raise SystemExit(
                f"FAIL: exposition is missing family {name!r}; has "
                f"{sorted(families)[:10]}…"
            )
    return len(families)


#: The representative serving workload for the overhead gate: the §5-style
#: healthcare registry (800 patients, tiered cost models) under a join
#: whose enforcement leaves a shortfall, at θ=1.0 — the paper's full-
#: compliance case, where strategy finding must repair *every* violating
#: tuple.  Every ask runs query evaluation, policy enforcement AND
#: greedy strategy finding — the fig11 profile the budget is defined on.
#: Approval is denied (QUOTED), so the database never mutates and every
#: ask repeats the identical solver-heavy work.
OVERHEAD_SQL = (
    "SELECT p.Diagnosis, t.Treatment, t.ResponseRate "
    "FROM Patients AS p JOIN Treatments AS t "
    "ON p.PatientId = t.PatientId WHERE p.Stage = 'IV'"
)
OVERHEAD_ASKS = (
    ("omar", "treatment-evaluation", 1.0),
    ("petra", "care", 1.0),
)


class _TimedAuditLog(AuditLog):
    """AuditLog accumulating the wall time spent inside its hooks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spent = 0.0

    def _timed(self, call, *args, **kwargs):
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self.spent += time.perf_counter() - started

    def begin_query(self, **kwargs):
        return self._timed(super().begin_query, **kwargs)

    def record_decisions(self, *args, **kwargs):
        return self._timed(super().record_decisions, *args, **kwargs)

    def record_increment(self, *args, **kwargs):
        return self._timed(super().record_increment, *args, **kwargs)

    def end_query(self, *args, **kwargs):
        return self._timed(super().end_query, *args, **kwargs)


def measure_overhead(trials: int, pairs: int) -> tuple[float, float, float]:
    """Audit cost as (plain seconds/ask, hook seconds/ask, hook share).

    Measured intrusively, not by A/B subtraction: the audited run
    accumulates the wall time spent inside the audit hooks (record
    building, canonical encoding, checksumming, the WAL append); the
    plain serving time is the rest of the run, and the share is
    ``hook_time / (total − hook_time)``.  (An A/B design has to subtract
    two ~±30% noisy wall times to resolve a ~2% effect; measured here,
    it fails that badly.)  Each figure is the median across *trials*
    runs; the engine-side record preparation outside the hooks
    benchmarks at the noise floor (see docs/OBSERVABILITY.md).

    The cyclic garbage collector is disabled while the asks are timed: a
    collection is charged to whichever code allocates when a generation
    fills, so with it on the hook time moves with where the solver's
    allocations leave the collector, not with what the hooks do.
    """
    scenario = healthcare_database(patients=800)
    asks = 2 * pairs
    fractions: list[float] = []
    plain: list[float] = []
    hooks: list[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        for trial in range(trials):
            log = _TimedAuditLog(Path(tmp) / f"overhead-{trial}.log")
            engine = PCQEngine(
                scenario.db,
                scenario.policies,
                # gain_scope="all" is the literal Equation-2 gain the paper
                # uses — the same configuration the fig11 panels benchmark.
                solver=make_solver("greedy", gain_scope="all", two_phase=True),
                approval=lambda _quote: False,
                audit=log,
            )
            for user, purpose, fraction in OVERHEAD_ASKS:  # warm caches
                engine.execute(
                    QueryRequest(
                        OVERHEAD_SQL,
                        purpose=purpose,
                        required_fraction=fraction,
                    ),
                    user=user,
                )
            log.spent = 0.0
            collecting = gc.isenabled()
            gc.disable()
            try:
                started = time.perf_counter()
                for _ in range(pairs):
                    for user, purpose, fraction in OVERHEAD_ASKS:
                        engine.execute(
                            QueryRequest(
                                OVERHEAD_SQL,
                                purpose=purpose,
                                required_fraction=fraction,
                            ),
                            user=user,
                        )
                total = time.perf_counter() - started
            finally:
                if collecting:
                    gc.enable()
            log.close()
            fractions.append(log.spent / (total - log.spent))
            plain.append((total - log.spent) / asks)
            hooks.append(log.spent / asks)
    return (
        statistics.median(plain),
        statistics.median(hooks),
        statistics.median(fractions),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-hook-ms",
        type=float,
        default=3.0,
        help="allowed audit hook time per ask, collector disabled, in "
        "milliseconds (default: 3.0)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=3,
        help="overhead measurement runs; the gate takes the median",
    )
    parser.add_argument(
        "--pairs-per-trial",
        type=int,
        default=5,
        help="timed ask pairs per overhead trial",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write trajectory-compatible results"
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    # Isolated registry so the checks see exactly this run's metrics.
    previous = get_metrics()
    set_metrics(MetricsRegistry())
    try:
        with tempfile.TemporaryDirectory() as tmp:
            audit_path = Path(tmp) / "audit.log"
            with AuditLog(audit_path) as audit:
                engine = fresh_engine(audit)
                replies = run_asks(engine)
            statuses = [reply.status.value for reply in replies]
            print(f"asks: {len(replies)} completed, statuses={statuses}")

            queries, decisions = check_audit_replay(audit_path)
            print(
                f"audit replay: {queries} queries, {decisions} decision "
                f"records byte-identical"
            )
            check_explain_determinism(audit_path)
            print("audit explain: deterministic, policy + lineage present")

            families = check_openmetrics()
            print(f"openmetrics: {families} families parse strictly")

        plain_s, hook_s, overhead = measure_overhead(
            args.trials, args.pairs_per_trial
        )
        over_budget = 1e3 * hook_s > args.max_hook_ms
        if over_budget:
            # Escalate once with doubled trials before failing: a perf
            # gate on a shared runner must survive one unlucky window.
            print(
                f"overhead: {1e3 * hook_s:.2f}ms/ask over budget — "
                f"re-measuring with {2 * args.trials} trials"
            )
            plain_s, hook_s, overhead = measure_overhead(
                2 * args.trials, args.pairs_per_trial
            )
            over_budget = 1e3 * hook_s > args.max_hook_ms
        print(
            f"overhead: {1e3 * plain_s:.1f}ms/ask serving + "
            f"{1e3 * hook_s:.2f}ms/ask audit (limit {args.max_hook_ms:.2f}ms, "
            f"collector off; {overhead:+.2%} of serving, not gated) — "
            f"{'FAIL' if over_budget else 'ok'}"
        )
        record(
            "obs (telemetry smoke)",
            queries=queries,
            decision_records=decisions,
            metric_families=families,
            plain_ask_s=plain_s,
            audited_ask_s=plain_s + hook_s,
            hook_ms_per_ask=1e3 * hook_s,
            overhead_pct=100.0 * overhead,
        )
        if args.json:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "environment": environment_info(),
                "panel_seconds": {"obs": time.perf_counter() - started},
                "series": dict(SERIES),
                "metrics": get_metrics().snapshot(),
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json}")
        if over_budget:
            print(
                "FAIL: audit hook time per ask exceeds the budget",
                file=sys.stderr,
            )
            return 1
    finally:
        set_metrics(previous)
    print("obs smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
