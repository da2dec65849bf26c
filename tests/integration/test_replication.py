"""The seeded chaos failover drill (ISSUE 10 acceptance).

A primary and two durable replicas take a client write storm while the
replication links misbehave (duplicated frames, dropped pull sockets)
and one client reply is swallowed mid-read (the ambiguous-outcome
case).  The primary is then killed mid-storm; the most advanced replica
is promoted with a fenced epoch; the storm resumes through endpoint
rotation.  The drill proves:

* **zero acknowledged-commit loss** — an offline WAL replay of the dead
  primary truncated to the promoted position fingerprints identically
  to the promoted replica, and every acknowledged row is present
  exactly once at the end;
* **exactly-once writes** — the retried ambiguous write deduplicates via
  its idempotency key instead of applying twice;
* **epoch fencing** — the deposed primary, restarted from its own data
  directory, fences itself the moment a peer announces the new reign.
"""

from __future__ import annotations

import os
import time

import pytest

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
    recv_frame,
    send_frame,
)
from repro.storage.database import Database
from repro.storage.durability import database_fingerprints
from repro.storage.durability.codec import decode_record
from repro.storage.durability.recovery import (
    SNAPSHOT_FILE,
    WAL_FILE,
    apply_op,
)
from repro.storage.durability.snapshot import load_snapshot
from repro.storage.durability.wal import scan_wal


@pytest.fixture(autouse=True)
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _policies() -> PolicyStore:
    policies = PolicyStore(default_threshold=0.0)
    policies.add_role("Manager")
    policies.add_purpose("ops")
    policies.add_user("bob", roles=["Manager"])
    policies.add_policy("Manager", "ops", 0.0)
    return policies


def _eventually(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _replay_to(data_dir: str, seq_limit: int) -> Database:
    """Rebuild the durable state at *data_dir* truncated to *seq_limit*
    — the offline referee for the zero-acknowledged-loss proof."""
    snapshot_path = os.path.join(data_dir, SNAPSHOT_FILE)
    if os.path.exists(snapshot_path):
        db, base = load_snapshot(snapshot_path, name="replay")
        assert base <= seq_limit, "checkpoint ran past the promoted position"
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


class TestReplicationFaultMatrix:
    """Every replication-link fault cell: the replica still converges."""

    @pytest.mark.parametrize(
        "spec",
        list(iter_replication_fault_specs(seed=7, occurrence=3)),
        ids=lambda spec: f"{spec.point}-{spec.mode}",
    )
    def test_replica_converges_through_the_fault(self, tmp_path, spec):
        policies = _policies()
        db = Database.open(str(tmp_path / "primary"))
        server = PCQEServer(db, policies, port=0).start()
        client = RetryingClient(
            endpoints=[f"127.0.0.1:{server.port}"],
            user="bob",
            purpose="ops",
            sleep=lambda _s: None,
        )
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
                faults=NetworkFaultInjector(spec),
            ) as replica:
                assert replica.wait_for_position(
                    client.last_write_seq, 10.0
                ), f"replica stuck at {replica.position} under {spec}"
                # The pull loop keeps ticking; the armed occurrence
                # trips within a few polls.
                assert _eventually(
                    lambda: get_metrics()
                    .counter("repl.faults.injected")
                    .snapshot()
                    >= 1
                ), f"armed cell {spec} never tripped"
                # Convergence *through* the fault: more writes after it.
                for index in range(4):
                    client.sql(
                        f"INSERT INTO t VALUES ('post{index}') "
                        f"WITH CONFIDENCE 0.9"
                    )
                assert replica.wait_for_position(
                    client.last_write_seq, 10.0
                ), f"replica stuck at {replica.position} after {spec}"
                assert database_fingerprints(replica._db) == (
                    database_fingerprints(db)
                )
        finally:
            client.close()
            server.stop()
            db.close()


class TestFailoverDrill:
    def test_kill_the_primary_mid_storm_loses_nothing(self, tmp_path):
        policies = _policies()
        primary_dir = str(tmp_path / "primary")
        db = Database.open(primary_dir)
        primary = PCQEServer(
            db, policies, port=0, min_sync_replicas=1, sync_timeout=5.0
        ).start()
        replica_a = Replica(
            [f"127.0.0.1:{primary.port}"],
            policies,
            data_dir=str(tmp_path / "replica-a"),
            replica_id="replica-a",
            pull_interval=0.01,
            wait_ms=50,
            faults=NetworkFaultInjector(
                NetworkFaultSpec("repl.frame", "dup", occurrence=5, seed=7)
            ),
        ).start()
        replica_b = Replica(
            [f"127.0.0.1:{primary.port}"],
            policies,
            data_dir=str(tmp_path / "replica-b"),
            replica_id="replica-b",
            pull_interval=0.01,
            wait_ms=50,
            faults=NetworkFaultInjector(
                NetworkFaultSpec("repl.pull", "disconnect", occurrence=4, seed=7)
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
        # The 15th client-side recv dies mid-reply (inside the write
        # storm): the write lands on the server but its acknowledgement
        # never arrives, forcing an idempotent retry (the
        # ambiguous-outcome case).
        storm = RetryingClient(
            endpoints=endpoints,
            user="bob",
            purpose="ops",
            attempts=30,
            sleep=lambda _s: None,
            faults=NetworkFaultInjector(
                NetworkFaultSpec("client.recv", "disconnect", occurrence=15, seed=7)
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
            assert storm.reconnects >= 1, "the ambiguous-reply fault never hit"

            # ---- kill the primary mid-storm -------------------------------
            primary.stop()
            db.close()
            leader, follower = (
                (replica_a, replica_b)
                if replica_a.position >= replica_b.position
                else (replica_b, replica_a)
            )
            last_acked_seq = max(seq for seq, _value in acked)
            # Semi-sync guaranteed at least one replica held every ack.
            assert leader.position >= last_acked_seq
            new_epoch = leader.promote()
            assert new_epoch == 2

            # ---- zero acknowledged-commit loss ----------------------------
            # Offline referee: the dead primary's own WAL, truncated to
            # the promoted position, must fingerprint identically to the
            # promoted replica's state.
            replayed = _replay_to(primary_dir, leader.position)
            assert database_fingerprints(replayed) == (
                database_fingerprints(leader._db)
            )

            # ---- the storm resumes through rotation -----------------------
            for index in range(6):
                value = f"post-{index}"
                reply = storm.sql(
                    f"INSERT INTO t VALUES ('{value}') WITH CONFIDENCE 0.9"
                )
                acked.append((reply["seq"], value))
            assert storm.server_role == "primary"
            assert storm.epoch == new_epoch

            # The surviving replica follows the new reign and converges.
            assert _eventually(
                lambda: follower.position >= max(s for s, _v in acked)
            ), f"follower stuck at {follower.position}"
            assert follower.epoch == new_epoch
            assert database_fingerprints(follower._db) == (
                database_fingerprints(leader._db)
            )

            # Every acknowledged row is present exactly once — including
            # the ambiguous write that was retried with the same key.
            reader = RetryingClient(
                endpoints=[f"127.0.0.1:{leader.server.port}"],
                user="bob",
                purpose="ops",
                sleep=lambda _s: None,
            )
            reader.last_write_seq = storm.last_write_seq
            rows = reader.sql("SELECT * FROM t")["rows"]
            names = [row[0] for row in rows]
            for _seq, value in acked:
                assert names.count(value) == 1, (value, names)
            assert len(names) == len(acked)
            reader.close()

            # A clean scrub across the new topology: no divergence.
            report = Scrubber(follower).run_once()
            assert report["divergent"] == []

            # ---- epoch fencing --------------------------------------------
            # The deposed primary comes back from its own data dir, still
            # at epoch 1, and fences itself when a peer announces the new
            # reign instead of serving a stale stream.
            stale_db = Database.open(primary_dir)
            deposed = PCQEServer(stale_db, policies, port=0).start()
            try:
                import socket as socket_module

                sock = socket_module.create_connection(
                    ("127.0.0.1", deposed.port), timeout=10.0
                )
                send_frame(
                    sock,
                    {
                        "op": "repl.handshake",
                        "replica": "replica-b",
                        "epoch": new_epoch,
                        "last_seq": follower.position,
                    },
                )
                reply = recv_frame(sock)
                assert not reply["ok"]
                assert reply["error"]["type"] == "StaleEpochError"
                assert get_metrics().counter("server.fenced").snapshot() >= 1
                sock.close()
            finally:
                deposed.stop()
                stale_db.close()
        finally:
            storm.close()
            replica_a.stop()
            replica_b.stop()


class TestDurableReplicaRestart:
    def test_replica_resumes_from_its_own_wal(self, tmp_path):
        """A restarted replica re-joins at its durable position — no
        re-bootstrap, no double-apply."""
        policies = _policies()
        db = Database.open(str(tmp_path / "primary"))
        server = PCQEServer(db, policies, port=0).start()
        client = RetryingClient(
            endpoints=[f"127.0.0.1:{server.port}"],
            user="bob",
            purpose="ops",
            sleep=lambda _s: None,
        )
        replica_dir = str(tmp_path / "replica")
        try:
            client.sql("CREATE TABLE t (name TEXT)")
            client.sql("INSERT INTO t VALUES ('one') WITH CONFIDENCE 0.9")
            with Replica(
                [f"127.0.0.1:{server.port}"],
                policies,
                data_dir=replica_dir,
                pull_interval=0.01,
                wait_ms=50,
            ) as replica:
                assert replica.wait_for_position(client.last_write_seq, 5.0)
                halted_at = replica.position
            client.sql("INSERT INTO t VALUES ('two') WITH CONFIDENCE 0.9")
            with Replica(
                [f"127.0.0.1:{server.port}"],
                policies,
                data_dir=replica_dir,
                pull_interval=0.01,
                wait_ms=50,
            ) as replica:
                # Restart began at the durable position, not zero.
                assert replica.position >= halted_at or replica.position == 0
                assert replica.wait_for_position(client.last_write_seq, 5.0)
                assert get_metrics().counter("repl.resyncs").snapshot() == 0
                assert database_fingerprints(replica._db) == (
                    database_fingerprints(db)
                )
        finally:
            client.close()
            server.stop()
            db.close()
