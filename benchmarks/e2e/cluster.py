"""The system under test: a durable primary with one semi-sync replica.

:func:`build` assembles it in the calling process (the traced run drives
the layers directly); run as a script it is the *cluster child* the load
generator talks to over real sockets, controlled by one JSON object per
line on stdin/stdout:

    ← {"ready": true, "port": …, "primary_dir": …, "timings": {…}}   (once)
    → {"cmd": "stats"}      ← counters, gauges, RSS, WAL size, positions
    → {"cmd": "verify"}     ← replica caught up? fingerprints equal? …
    → {"cmd": "stop"}       ← {"stopped": true}, then the process exits

Server defaults throughout (``workers=8``, ``solver="greedy"``,
``engine="auto"``); the only non-default arguments are the ones that
*define* the deployment: ``sync=True`` WAL, ``min_sync_replicas=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.obs import get_metrics  # noqa: E402
from repro.policy import PolicyStore  # noqa: E402
from repro.server import PCQEServer, Replica  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.durability import (  # noqa: E402
    SNAPSHOT_FILE,
    WAL_FILE,
    database_fingerprints,
    write_snapshot,
)
from repro.workload import healthcare_database  # noqa: E402

#: Semi-sync ack timeout; a commit that waits this long counts in
#: ``server.sync_timeouts`` and fails the run.
SYNC_TIMEOUT_S = 10.0
#: The generated registry is snapshotted *as of* this WAL position, so the
#: replica (at position 0) must bootstrap over the wire like a real one.
BASE_SEQ = 1


@dataclass
class Cluster:
    db: Database
    policies: PolicyStore
    server: PCQEServer
    replica: Replica
    primary_dir: str
    replica_dir: str
    #: Seconds per set-up stage, in order.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def durability(self):
        """The primary's durability manager (WAL position, commit hook)."""
        return self.db._durability

    @property
    def last_seq(self) -> int:
        return self.durability.last_seq

    def wal_bytes(self) -> int:
        path = os.path.join(self.primary_dir, WAL_FILE)
        return os.path.getsize(path) if os.path.exists(path) else 0

    def stats(self) -> dict:
        snapshot = get_metrics().snapshot()

        def value(name: str) -> float:
            metric = snapshot.get(name, 0)
            return metric if isinstance(metric, (int, float)) else 0

        return {
            "last_seq": self.last_seq,
            "replica_position": self.replica.position,
            "wal_bytes": self.wal_bytes(),
            "generations": len(self.server.mvcc.generation_seqs()),
            "lag_frames": max(0, self.last_seq - self.replica.position),
            "sync_timeouts": value("server.sync_timeouts"),
            "rejected": value("server.rejected") + value("server.shed"),
            "rss_mb": _peak_rss_mb(),
        }

    def verify(self) -> dict:
        """Post-workload integrity: replica converged and identical."""
        caught_up = self.replica.wait_for_position(self.last_seq, 30.0)
        with self.server.mvcc.paused_commits():
            primary = database_fingerprints(self.db)
        return {
            "caught_up": caught_up,
            "fingerprints_equal": primary
            == database_fingerprints(self.replica._db),
            **self.stats(),
        }

    def close(self) -> None:
        self.replica.stop()
        self.server.stop()
        self.db.close()


def _peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    ``VmHWM`` rather than ``ru_maxrss``: the latter survives ``exec``, so
    a child would report its parent's size whenever the parent is larger.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build(root: str, patients: int, data_seed: int) -> Cluster:
    """Generate → snapshot → recover → serve → replicate → converge."""
    timings: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        timings[stage] = now - mark
        mark = now

    scenario = healthcare_database(patients=patients, seed=data_seed)
    lap("generate_s")
    primary_dir = os.path.join(root, "primary")
    replica_dir = os.path.join(root, "replica")
    os.makedirs(primary_dir)
    write_snapshot(
        scenario.db, os.path.join(primary_dir, SNAPSHOT_FILE), BASE_SEQ
    )
    lap("snapshot_s")
    # No checkpoint_bytes: the WAL only grows inside a measurement window.
    db = Database.open(primary_dir, sync=True)
    lap("recover_s")
    server = PCQEServer(
        db,
        scenario.policies,
        port=0,
        min_sync_replicas=1,
        sync_timeout=SYNC_TIMEOUT_S,
    ).start()
    replica = Replica(
        [f"127.0.0.1:{server.port}"],
        scenario.policies,
        data_dir=replica_dir,
        pull_interval=0.01,
        wait_ms=50,
    ).start()
    lap("start_s")
    cluster = Cluster(
        db, scenario.policies, server, replica, primary_dir, replica_dir, timings
    )
    if not replica.wait_for_position(BASE_SEQ, 120.0):
        cluster.close()
        raise RuntimeError(
            f"replica stuck at {replica.position}, primary at {BASE_SEQ}"
        )
    # Cheap sanity only; fingerprints are compared after the workload.
    if any(len(replica._db.table(t.name)) != len(t) for t in db.tables()):
        cluster.close()
        raise RuntimeError("replica bootstrap diverged from the primary")
    lap("converge_s")
    return cluster


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--patients", type=int, required=True)
    parser.add_argument("--data-seed", type=int, required=True)
    args = parser.parse_args(argv)

    def reply(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    cluster = build(args.root, args.patients, args.data_seed)
    try:
        reply({
            "ready": True,
            "port": cluster.server.port,
            "primary_dir": cluster.primary_dir,
            "replica_dir": cluster.replica_dir,
            "timings": cluster.timings,
        })
        for line in sys.stdin:
            command = json.loads(line).get("cmd")
            if command == "stats":
                reply(cluster.stats())
            elif command == "verify":
                reply(cluster.verify())
            elif command == "stop":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        cluster.close()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
