#!/usr/bin/env python3
"""Replication smoke: the cluster survives losing the node.

CI's ``repl-smoke`` job runs three phases against the ISSUE-10
replication stack (``repro.server.replication`` WAL shipping / replica
reads / failover / scrub):

1. **Seeded replication fault matrix** — every (point, mode) cell of
   ``iter_replication_fault_specs`` arms one replica's link injector
   (duplicated frames, dropped pull sockets, torn frames, delays).  Each
   cell writes through the primary before and after the fault trips and
   asserts the replica converges to a **fingerprint-identical** state —
   exactly-once apply through every link failure.
2. **Failover drill** — a primary under ``min_sync_replicas=1`` with two
   durable replicas takes a write storm while one client reply is
   swallowed mid-read (the ambiguous-outcome case); the primary is
   killed, the most advanced replica promotes with a fenced epoch, and
   an **offline WAL replay** of the dead primary truncated to the
   promoted position must fingerprint identically to the new leader:
   zero acknowledged-commit loss.  The storm resumes through endpoint
   rotation, the follower converges to the new reign, and every
   acknowledged row is present exactly once (idempotent retry dedup).
3. **Replication lag** — per-commit convergence latency: for each of N
   writes, the time from the primary's ack to the replica holding that
   seq.  The p99 must stay bounded.

Exit code 0 only if every invariant holds.  ``--json`` writes a
harness-compatible results file (panel ``repl``) for ``trajectory.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_common import SCHEMA_VERSION, environment_info, record, SERIES

from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.policy import PolicyStore
from repro.server import (
    NetworkFaultInjector,
    NetworkFaultSpec,
    PCQEServer,
    Replica,
    RetryingClient,
    Scrubber,
    iter_replication_fault_specs,
)
from repro.storage.database import Database
from repro.storage.durability import database_fingerprints
from repro.storage.durability.codec import decode_record
from repro.storage.durability.recovery import SNAPSHOT_FILE, WAL_FILE, apply_op
from repro.storage.durability.snapshot import load_snapshot
from repro.storage.durability.wal import scan_wal


def _percentile(samples: "list[float]", q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _policies() -> PolicyStore:
    policies = PolicyStore(default_threshold=0.0)
    policies.add_role("Manager")
    policies.add_purpose("ops")
    policies.add_user("bob", roles=["Manager"])
    policies.add_policy("Manager", "ops", 0.0)
    return policies


def _client(endpoints: "list[str]", **kwargs) -> RetryingClient:
    kwargs.setdefault("user", "bob")
    kwargs.setdefault("purpose", "ops")
    kwargs.setdefault("sleep", lambda _s: None)
    return RetryingClient(endpoints=endpoints, **kwargs)


def _eventually(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _replay_to(data_dir: str, seq_limit: int) -> Database:
    """Rebuild the durable state at *data_dir* truncated to *seq_limit*
    — the offline referee for the zero-acknowledged-loss proof."""
    snapshot_path = os.path.join(data_dir, SNAPSHOT_FILE)
    if os.path.exists(snapshot_path):
        db, base = load_snapshot(snapshot_path, name="replay")
        if base > seq_limit:
            raise SystemExit(
                f"FAIL: checkpoint at seq {base} ran past the promoted "
                f"position {seq_limit}"
            )
    else:
        db, base = Database("replay"), 0
    wal_path = os.path.join(data_dir, WAL_FILE)
    if os.path.exists(wal_path):
        for payload in scan_wal(wal_path).payloads:
            seq, op = decode_record(payload)
            if seq > seq_limit:
                break
            if seq > base:
                apply_op(db, op, seq)
    return db


def run_fault_matrix(seed: int, root: str) -> int:
    """Every replication-link fault cell; returns the cell count."""
    cells = 0
    for spec in iter_replication_fault_specs(seed=seed, occurrence=3):
        cell = f"{spec.point}/{spec.mode}"
        injector = NetworkFaultInjector(spec)
        policies = _policies()
        db = Database.open(os.path.join(root, f"matrix-{cells}"))
        server = PCQEServer(db, policies, port=0).start()
        client = _client([f"127.0.0.1:{server.port}"])
        try:
            client.sql("CREATE TABLE t (name TEXT)")
            for index in range(4):
                client.sql(
                    f"INSERT INTO t VALUES ('w{index}') WITH CONFIDENCE 0.9"
                )
            with Replica(
                [f"127.0.0.1:{server.port}"],
                policies,
                pull_interval=0.01,
                wait_ms=50,
                faults=injector,
            ) as replica:
                if not replica.wait_for_position(client.last_write_seq, 15.0):
                    raise SystemExit(
                        f"FAIL[{cell}]: replica stuck at {replica.position}"
                    )
                # The pull loop keeps ticking; the armed occurrence trips
                # within a few polls.
                if not _eventually(lambda: injector.tripped):
                    raise SystemExit(f"FAIL[{cell}]: armed fault never fired")
                # Convergence *through* the fault: more writes after it.
                for index in range(4):
                    client.sql(
                        f"INSERT INTO t VALUES ('post{index}') "
                        f"WITH CONFIDENCE 0.9"
                    )
                if not replica.wait_for_position(client.last_write_seq, 15.0):
                    raise SystemExit(
                        f"FAIL[{cell}]: replica stuck at {replica.position} "
                        f"after the fault"
                    )
                if database_fingerprints(replica._db) != (
                    database_fingerprints(db)
                ):
                    raise SystemExit(
                        f"FAIL[{cell}]: replica diverged from the primary"
                    )
        finally:
            client.close()
            server.stop()
            db.close()
        cells += 1
    return cells


def run_failover_drill(seed: int, root: str) -> dict:
    policies = _policies()
    primary_dir = os.path.join(root, "primary")
    db = Database.open(primary_dir)
    primary = PCQEServer(
        db, policies, port=0, min_sync_replicas=1, sync_timeout=10.0
    ).start()
    replica_a = Replica(
        [f"127.0.0.1:{primary.port}"],
        policies,
        data_dir=os.path.join(root, "replica-a"),
        replica_id="replica-a",
        pull_interval=0.01,
        wait_ms=50,
        faults=NetworkFaultInjector(
            NetworkFaultSpec("repl.frame", "dup", occurrence=5, seed=seed)
        ),
    ).start()
    replica_b = Replica(
        [f"127.0.0.1:{primary.port}"],
        policies,
        data_dir=os.path.join(root, "replica-b"),
        replica_id="replica-b",
        pull_interval=0.01,
        wait_ms=50,
        faults=NetworkFaultInjector(
            NetworkFaultSpec("repl.pull", "disconnect", occurrence=4, seed=seed)
        ),
    ).start()
    # Cross-wire so each node can follow whichever peer survives.
    replica_a.endpoints.append(("127.0.0.1", replica_b.server.port))
    replica_b.endpoints.append(("127.0.0.1", replica_a.server.port))
    endpoints = [
        f"127.0.0.1:{primary.port}",
        f"127.0.0.1:{replica_a.server.port}",
        f"127.0.0.1:{replica_b.server.port}",
    ]
    # One client-side recv dies mid-reply inside the storm: the write
    # lands but its acknowledgement never arrives — the ambiguous case
    # that must deduplicate on retry.
    storm = _client(
        endpoints,
        attempts=30,
        faults=NetworkFaultInjector(
            NetworkFaultSpec("client.recv", "disconnect", occurrence=15, seed=seed)
        ),
    )
    acked: "list[tuple[int, str]]" = []
    try:
        storm.sql("CREATE TABLE t (name TEXT)")
        for index in range(12):
            value = f"pre-{index}"
            reply = storm.sql(
                f"INSERT INTO t VALUES ('{value}') WITH CONFIDENCE 0.9"
            )
            acked.append((reply["seq"], value))
        if storm.reconnects < 1:
            raise SystemExit("FAIL: the ambiguous-reply fault never hit")

        # ---- kill the primary mid-storm -----------------------------------
        primary.stop()
        db.close()
        leader, follower = (
            (replica_a, replica_b)
            if replica_a.position >= replica_b.position
            else (replica_b, replica_a)
        )
        last_acked_seq = max(seq for seq, _value in acked)
        if leader.position < last_acked_seq:
            raise SystemExit(
                f"FAIL: semi-sync lied — most advanced replica holds "
                f"{leader.position} < last acked {last_acked_seq}"
            )
        new_epoch = leader.promote()

        # ---- zero acknowledged-commit loss --------------------------------
        replayed = _replay_to(primary_dir, leader.position)
        if database_fingerprints(replayed) != (
            database_fingerprints(leader._db)
        ):
            raise SystemExit(
                "FAIL: promoted replica does not match the dead primary's "
                "WAL replayed to the promoted position (acked-commit loss)"
            )

        # ---- the storm resumes through rotation ---------------------------
        for index in range(6):
            value = f"post-{index}"
            reply = storm.sql(
                f"INSERT INTO t VALUES ('{value}') WITH CONFIDENCE 0.9"
            )
            acked.append((reply["seq"], value))
        if storm.server_role != "primary" or storm.epoch != new_epoch:
            raise SystemExit(
                f"FAIL: storm ended on role={storm.server_role!r} "
                f"epoch={storm.epoch} (wanted primary@{new_epoch})"
            )

        if not _eventually(
            lambda: follower.position >= max(s for s, _v in acked)
        ):
            raise SystemExit(
                f"FAIL: follower stuck at {follower.position} after failover"
            )
        if database_fingerprints(follower._db) != (
            database_fingerprints(leader._db)
        ):
            raise SystemExit("FAIL: follower diverged from the new leader")

        # Every acknowledged row is present exactly once — including the
        # ambiguous write that was retried with the same key.
        reader = _client([f"127.0.0.1:{leader.server.port}"])
        reader.last_write_seq = storm.last_write_seq
        names = [row[0] for row in reader.sql("SELECT * FROM t")["rows"]]
        reader.close()
        for _seq, value in acked:
            if names.count(value) != 1:
                raise SystemExit(
                    f"FAIL: acked row {value!r} appears "
                    f"{names.count(value)} time(s)"
                )
        if len(names) != len(acked):
            raise SystemExit(
                f"FAIL: {len(names)} rows for {len(acked)} acked writes"
            )

        report = Scrubber(follower).run_once()
        if report["divergent"] or report["corruption"]:
            raise SystemExit(f"FAIL: post-failover scrub found {report}")
        return {
            "acked": len(acked),
            "epoch": new_epoch,
            "reconnects": storm.reconnects,
            "rotations": get_metrics()
            .counter("client.endpoint_rotations")
            .snapshot(),
        }
    finally:
        storm.close()
        replica_a.stop()
        replica_b.stop()


def run_lag(writes: int, root: str) -> dict:
    """Per-commit replication-lag latency on a healthy link."""
    policies = _policies()
    db = Database.open(os.path.join(root, "lag-primary"))
    server = PCQEServer(db, policies, port=0).start()
    client = _client([f"127.0.0.1:{server.port}"])
    lags: "list[float]" = []
    try:
        client.sql("CREATE TABLE t (name TEXT)")
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.001,
            wait_ms=200,
        ) as replica:
            if not replica.wait_for_position(client.last_write_seq, 15.0):
                raise SystemExit("FAIL: lag replica never caught up")
            for index in range(writes):
                reply = client.sql(
                    f"INSERT INTO t VALUES ('r{index}') WITH CONFIDENCE 0.9"
                )
                started = time.perf_counter()
                if not replica.wait_for_position(reply["seq"], 15.0):
                    raise SystemExit(
                        f"FAIL: replica never reached seq {reply['seq']}"
                    )
                lags.append(time.perf_counter() - started)
            if database_fingerprints(replica._db) != (
                database_fingerprints(db)
            ):
                raise SystemExit("FAIL: lag replica diverged")
    finally:
        client.close()
        server.stop()
        db.close()
    p99_ms = 1e3 * _percentile(lags, 0.99)
    if p99_ms > 10_000.0:
        raise SystemExit(f"FAIL: replication lag p99 {p99_ms:.0f} ms unbounded")
    return {
        "writes": writes,
        "p50_ms": 1e3 * _percentile(lags, 0.50),
        "p99_ms": p99_ms,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="seed for the fault injectors (default: 7)",
    )
    parser.add_argument(
        "--writes",
        type=int,
        default=30,
        help="writes in the lag measurement (default: 30)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write trajectory-compatible results"
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    # Isolated registry so the report sees exactly this run's metrics.
    previous = get_metrics()
    set_metrics(MetricsRegistry())
    try:
        with tempfile.TemporaryDirectory(prefix="repl-smoke-") as root:
            cells = run_fault_matrix(args.seed, os.path.join(root, "matrix"))
            injected = get_metrics().snapshot().get("repl.faults.injected", 0)
            if injected < cells:
                raise SystemExit(
                    f"FAIL: only {injected} injections counted for "
                    f"{cells} cells"
                )
            print(
                f"fault matrix: {cells} replication-link cells converged "
                f"(fingerprint-identical), {injected:.0f} injections"
            )

            drill = run_failover_drill(
                args.seed, os.path.join(root, "drill")
            )
            print(
                f"failover: {drill['acked']} acked writes survived the "
                f"primary's death (epoch {drill['epoch']}, "
                f"reconnects={drill['reconnects']}, "
                f"rotations={drill['rotations']:.0f}) — zero acked-commit loss"
            )

            lag = run_lag(args.writes, os.path.join(root, "lag"))
            print(
                f"lag: {lag['writes']} commits, convergence "
                f"p50={lag['p50_ms']:.1f}ms p99={lag['p99_ms']:.1f}ms"
            )

        record(
            "repl (fault matrix + failover + lag)",
            matrix_cells=cells,
            faults_injected=injected,
            acked_writes=drill["acked"],
            failover_epoch=drill["epoch"],
            reconnects=drill["reconnects"],
            lag_p50_ms=lag["p50_ms"],
            lag_p99_ms=lag["p99_ms"],
        )
        if args.json:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "environment": environment_info(),
                "panel_seconds": {"repl": time.perf_counter() - started},
                "series": dict(SERIES),
                "metrics": get_metrics().snapshot(),
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json}")
    finally:
        set_metrics(previous)
    print("replication smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
