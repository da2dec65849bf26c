"""The traced run (``--trace 1``): where one op's time goes, by layer.

Four passes over the same ops (the first 120 of the seed's
schedule), every reply checked by the oracle:

* **wire** — one client over the socket against the cluster child: the
  latency the layer numbers must add up to, plus the gauges and counters
  only a live server has (generations, lag, refusals, sync timeouts);
* **direct**, **bare**, **traced** — in this process, on three separate
  clusters, interleaved op by op in rotating order so that drift on the
  box hits all three alike: the session API in one call (the in-process
  wall clock), the layered replay with a no-op recorder, and the layered
  replay recording spans.  ``traced`` ÷ ``bare`` is the tracing overhead;
  ``direct`` is what the layer self times are reconciled against.

The first ``WARM_OPS`` ops run and are checked but not measured.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import ExitStack
from typing import Any

import cluster as cluster_module
from harness import (
    PER_LAYER,
    WORK_DIR,
    ChildCluster,
    RunResult,
    integrity_problems,
    send,
    wal_frames,
)
from layers import NullRecorder, Recorder, Replay, self_times
from measure import Metric, percentile
from oracle import Oracle
from workloads import (
    DATA_SEED,
    TRACE_OPS,
    Op,
    Workload,
    schedule_digest,
    trace_ops,
)

__all__ = ["traced_run", "LAYER_GROUPS"]

#: Leading ops excluded from every timing (first-call costs); at most a
#: quarter of a short replay.
WARM_OPS = 20

#: Layer groups in which each workload's prediction is stated (README,
#: "How the layers interact").  ``server.wire_overhead`` is not a span:
#: it is the wire-minus-direct latency, i.e. dispatch, admission and the
#: thread hop, and is counted with the per-request fixed cost.
LAYER_GROUPS = {
    "fixed": ("server.wire_overhead", "server.protocol.codec",
              "server.mvcc.pin", "sql.parse", "sql.plan", "algebra.optimize",
              "engines.select"),
    "read": ("engines.execute", "lineage.compile", "lineage.evaluate",
             "policy.filter"),
    "increment": ("increment.build", "increment.solve", "increment.apply"),
    "commit": ("server.mvcc.commit", "storage.durability.wal_append",
               "server.replication.ack_wait"),
    "storage": ("storage.mutation",),
}


def _wire_pass(
    workload: Workload, ops: "list[Op]", check: Any
) -> "tuple[list[float], dict[str, Any]]":
    """Per-op latency (ms) through one client, and what the live cluster
    reported: gauge maxima sampled between ops, counters, the WAL."""
    child = ChildCluster(workload)
    stats: "dict[str, Any]" = {"generations_max": 0, "lag_frames_max": 0, "acked": 0}
    latencies: "list[float]" = []
    try:
        try:
            client = child.client
            for op_id, op in enumerate(ops):
                started = time.perf_counter_ns()
                reply = send(client, op)
                latencies.append((time.perf_counter_ns() - started) / 1e6)
                sampled = child.command("stats")
                for gauge in ("generations", "lag_frames"):
                    stats[gauge + "_max"] = max(
                        stats[gauge + "_max"], sampled[gauge]
                    )
                stats["acked"] += op.kind == "dml" or "improved" in reply
                check("wire", op_id, reply)
            stats.update(child.command("verify"))
            stats["reconnects"] = child.client.reconnects
        finally:
            child.stop()
        stats["wal_frames"], stats["wal_bytes"] = wal_frames(child)
    finally:
        shutil.rmtree(child.root, ignore_errors=True)
    return latencies, stats


def _in_process_passes(
    workload: Workload, ops: "list[Op]", warm: int, check: Any,
    recorder: Recorder,
) -> "tuple[dict[str, list[float]], dict[str, float], dict[str, float]]":
    """Per-op wall (ms) of the three interleaved passes; the traced
    replay's work counts; one cluster's set-up stage timings."""
    WORK_DIR.mkdir(exist_ok=True)
    walls: "dict[str, list[float]]" = {"direct": [], "bare": [], "traced": []}
    with ExitStack() as stack:
        replays: "dict[str, Replay]" = {}
        for tag in walls:
            root = tempfile.mkdtemp(prefix=f"{workload.name}-{tag}-", dir=WORK_DIR)
            stack.callback(shutil.rmtree, root, ignore_errors=True)
            built = cluster_module.build(root, workload.patients, DATA_SEED)
            stack.callback(built.close)
            replays[tag] = Replay(
                built, workload, recorder if tag == "traced" else NullRecorder()
            )
            stack.callback(replays[tag].close)
        tags = list(walls)
        for op_id, op in enumerate(ops):
            if op_id == warm:
                replays["traced"].counts.clear()
            turn = op_id % len(tags)
            for tag in tags[turn:] + tags[:turn]:
                replay = replays[tag]
                call = replay.direct if tag == "direct" else replay.layered
                started = time.perf_counter_ns()
                reply = call(op, op_id)
                walls[tag].append((time.perf_counter_ns() - started) / 1e6)
                check(tag, op_id, reply)
        return walls, dict(replays["traced"].counts), built.timings


def traced_run(
    workload: Workload, seed: int, op_count: int = TRACE_OPS
) -> RunResult:
    ops = trace_ops(workload, seed, op_count)
    oracle = Oracle(workload)
    expected = [oracle.expect(op) for op in ops]
    problems: "list[str]" = []

    def check(tag: str, op_id: int, reply: "dict[str, Any]") -> None:
        problem = oracle.compare(ops[op_id], expected[op_id], reply)
        if problem is not None:
            problems.append(f"{tag} pass, op {op_id} {ops[op_id].label}: {problem}")

    wire, live = _wire_pass(workload, ops, check)
    recorder = Recorder()
    warm = min(WARM_OPS, len(ops) // 4)
    walls, counts, timings = _in_process_passes(
        workload, ops, warm, check, recorder
    )
    recorder.write_jsonl(str(WORK_DIR / f"trace-{workload.name}.jsonl"))

    measured = range(warm, len(ops))
    n = len(measured)
    wire, direct, bare, traced = (
        [series[i] for i in measured]
        for series in (wire, walls["direct"], walls["bare"], walls["traced"])
    )
    # Self time per (op class, span name) over the measured ops, in ms.
    by_label: "dict[str, dict[str, float]]" = defaultdict(lambda: defaultdict(float))
    grouped = {name for group in LAYER_GROUPS.values() for name in group}
    # Per op: the layer self time the direct pass also spends (it has no
    # frame codec), to reconcile against that op's direct wall clock.
    reconciled = [0.0] * len(ops)
    for (name, _s, _e, _p, op_id), own in zip(
        recorder.spans, self_times(recorder.spans)
    ):
        if op_id >= warm:
            by_label[ops[op_id].label][name] += own / 1e6
            if name in grouped and name != "server.protocol.codec":
                reconciled[op_id] += own / 1e6
    layer_ms: "dict[str, float]" = defaultdict(float)
    for spans in by_label.values():
        for name, total in spans.items():
            layer_ms[name] += total
    wire_overhead = statistics.median(w - d for w, d in zip(wire, direct))
    layer_ms["server.wire_overhead"] = max(0.0, wire_overhead) * n
    attributed = sum(layer_ms[name] for name in grouped)

    def per_op(span: str) -> float:
        return layer_ms[span] / n

    def ratio(numerator: str, denominator: str) -> "tuple[float, int]":
        base = counts.get(denominator, 0.0)
        return (counts.get(numerator, 0.0) / base if base else 0.0, int(base))

    strategies = counts.get("asks_with_strategy", 0.0)
    values: "dict[str, tuple[float, int]]" = {
        "server.protocol.codec_ms": (per_op("server.protocol.codec"), n),
        "server.protocol.reply_bytes": ratio("reply_bytes", "ops"),
        "server.wire_overhead_ms": (wire_overhead, n),
        "server.admission.refused": (live["rejected"], len(ops)),
        "server.sync_timeouts": (live["sync_timeouts"], len(ops)),
        "client.reconnects": (live["reconnects"], len(ops)),
        "server.mvcc.pin_ms": (per_op("server.mvcc.pin"), n),
        "server.mvcc.commit_ms": (per_op("server.mvcc.commit"), n),
        "server.mvcc.generations_max": (live["generations_max"], len(ops)),
        "server.replication.ack_wait_ms": (
            per_op("server.replication.ack_wait"), n),
        "server.replication.lag_frames_max": (live["lag_frames_max"], len(ops)),
        "sql.parse_ms": (per_op("sql.parse"), n),
        "sql.plan_ms": (per_op("sql.plan"), n),
        "algebra.optimize_ms": (per_op("algebra.optimize"), n),
        "engines.select_ms": (per_op("engines.select"), n),
        "engines.execute_ms": (per_op("engines.execute"), n),
        "engines.rows_scanned_per_op": ratio("rows_scanned", "ops"),
        "engines.rows_out_per_op": ratio("rows_out", "ops"),
        "engines.columnar_share": ratio("columnar_asks", "asks"),
        "lineage.compile_ms": (per_op("lineage.compile"), n),
        "lineage.evaluate_ms": (per_op("lineage.evaluate"), n),
        "lineage.circuit_nodes_per_op": ratio("circuit_nodes", "ops"),
        "lineage.shared_hit_rate": ratio("shared_hit_rate_sum", "asks_with_rows"),
        "policy.filter_ms": (per_op("policy.filter"), n),
        "policy.released_share": ratio("rows_released", "rows_decided"),
        "increment.build_ms": (per_op("increment.build"), n),
        "increment.solve_ms": (per_op("increment.solve"), n),
        "increment.apply_ms": (per_op("increment.apply"), n),
        "increment.gain_evaluations_per_ask": ratio(
            "gain_evaluations", "asks_with_strategy"),
        "increment.plan_cost_per_ask": ratio("plan_cost", "asks_with_strategy"),
        "increment.asks_with_strategy": (strategies, int(counts.get("asks", 0))),
        "storage.mutation_ms": (per_op("storage.mutation"), n),
        "storage.durability.wal_append_ms": (
            per_op("storage.durability.wal_append"), n),
        "storage.durability.wal_frames_per_commit": (
            live["wal_frames"] / live["acked"] if live["acked"] else 0.0,
            live["acked"]),
        "storage.durability.wal_bytes_per_commit": (
            live["wal_bytes"] / live["wal_frames"] if live["wal_frames"] else 0.0,
            live["wal_frames"]),
        "storage.durability.recover_s": (timings["recover_s"], 1),
        "wire.op_p50_ms": (percentile(wire, 0.50), n),
        "wire.op_p95_ms": (percentile(wire, 0.95), n),
        "inprocess.op_p50_ms": (percentile(direct, 0.50), n),
        # Medians of per-op ratios: one collector pause in one pass moves
        # one op's ratio, not the share.
        "trace.unattributed_share": (1.0 - statistics.median(
            reconciled[i] / walls["direct"][i] for i in measured), n),
        "trace.overhead_share": (
            statistics.median(t / b for t, b in zip(traced, bare)) - 1.0, n),
    }
    for group, names in LAYER_GROUPS.items():
        values[f"share.{group}"] = (
            sum(layer_ms[name] for name in names) / attributed, n)
    metrics = {
        name: Metric(value, PER_LAYER[name]["unit"], samples)
        for name, (value, samples) in values.items()
    }

    info: "dict[str, Metric]" = {}
    for label in sorted(by_label):
        count = sum(1 for i in measured if ops[i].label == label)
        for group, names in LAYER_GROUPS.items():
            total = sum(by_label[label].get(name, 0.0) for name in names)
            if total:
                info[f"{label}/{group}_ms"] = Metric(total / count, "ms", count)

    unattributed = metrics["trace.unattributed_share"].value
    if abs(unattributed) > 0.10:
        print(
            f"note: {workload.name}: layer self times and the in-process "
            f"wall clock differ by more than 10 % "
            f"(trace.unattributed_share = {unattributed:+.3f})",
            file=sys.stderr,
        )
    if not workload.writes and (live["wal_frames"] or strategies):
        problems.append(
            f"read-only workload saw {live['wal_frames']} commit(s), "
            f"{strategies:.0f} strategy finding(s)"
        )
    problems += integrity_problems(workload, live, live["acked"])
    return RunResult(
        workload.name, seed, 4 * len(ops), len(problems), problems, metrics,
        info, schedule_digest(workload, seed),
    )
