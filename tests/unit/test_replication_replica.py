"""Replica nodes: streaming apply, replica reads, scrubbing, quarantine."""

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
    ServerClient,
    ServerReplyError,
)
from repro.storage.database import Database
from repro.storage.durability import database_fingerprints
from repro.storage.durability.recovery import WAL_FILE


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Replication counters are asserted per-test; isolate the registry."""
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


def _client(server_or_port, **kwargs) -> RetryingClient:
    port = getattr(server_or_port, "port", server_or_port)
    kwargs.setdefault("user", "bob")
    kwargs.setdefault("purpose", "ops")
    kwargs.setdefault("sleep", lambda _s: None)
    return RetryingClient(endpoints=[f"127.0.0.1:{port}"], **kwargs)


def _seed_rows(client: RetryingClient, count: int = 5) -> None:
    client.sql("CREATE TABLE t (name TEXT, qty INT)")
    for index in range(count):
        client.sql(
            f"INSERT INTO t VALUES ('row{index}', {index}) "
            f"WITH CONFIDENCE 0.9"
        )


def _eventually(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture
def primary(tmp_path):
    policies = _policies()
    db = Database.open(str(tmp_path / "primary"))
    server = PCQEServer(db, policies, port=0).start()
    try:
        yield server, policies, db
    finally:
        server.stop()
        db.close()


class TestStreamingApply:
    def test_replica_converges_and_serves_reads(self, tmp_path, primary):
        server, policies, db = primary
        client = _client(server)
        _seed_rows(client)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            data_dir=str(tmp_path / "replica"),
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            # The replica's logical state is byte-identical.
            assert database_fingerprints(replica._db) == (
                database_fingerprints(db)
            )
            reader = _client(replica.server)
            reader.last_write_seq = client.last_write_seq
            reply = reader.sql("SELECT * FROM t")
            assert reply["count"] == 5
            assert reply["seq"] >= client.last_write_seq
            reader.close()
        client.close()

    def test_in_memory_replica_needs_no_data_dir(self, primary):
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client, count=2)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            reader = _client(replica.server)
            assert reader.sql("SELECT * FROM t")["count"] == 2
            reader.close()
        client.close()

    def test_duplicated_frames_apply_exactly_once(self, primary):
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client)
        faults = NetworkFaultInjector(
            NetworkFaultSpec("repl.frame", "dup", occurrence=2)
        )
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
            faults=faults,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            metrics = get_metrics()
            assert metrics.counter("repl.duplicate_frames").snapshot() >= 1
            assert metrics.counter("repl.faults.injected").snapshot() >= 1
            reader = _client(replica.server)
            assert reader.sql("SELECT * FROM t")["count"] == 5
            reader.close()
        client.close()

    def test_cold_replica_bootstraps_from_snapshot(self, tmp_path, primary):
        server, policies, db = primary
        assert server.replication is not None
        # Shrink the feed so the early frames are evicted before the
        # replica is born: the incremental stream cannot start at 0 and
        # the replica must bootstrap from a primary snapshot.
        server.replication.feed._capacity = 3
        client = _client(server)
        _seed_rows(client, count=8)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            data_dir=str(tmp_path / "cold"),
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            # The counter lands after the post-resync checkpoint, a few
            # ms behind the position publish the wait observed.
            assert _eventually(
                lambda: get_metrics().counter("repl.resyncs").snapshot() >= 1
            )
            assert database_fingerprints(replica._db) == (
                database_fingerprints(db)
            )
        client.close()

    def test_replica_survives_primary_restart_gap(self, tmp_path, primary):
        """Frames written while the link is down stream once it returns."""
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client, count=2)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            for index in range(3):
                client.sql(
                    f"INSERT INTO t VALUES ('late{index}', {index}) "
                    f"WITH CONFIDENCE 0.5"
                )
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            reader = _client(replica.server)
            assert reader.sql("SELECT * FROM t")["count"] == 5
            reader.close()
        client.close()


class TestStep:
    def test_a_resync_requested_between_steps_runs_on_the_next(
        self, primary
    ):
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client, count=3)
        replica = Replica(
            [f"127.0.0.1:{server.port}"], policies, wait_ms=0
        )
        try:
            assert replica.step(0.0) is True  # handshake, one pull
            assert replica.position == server.replication.last_seq
            resyncs = get_metrics().counter("repl.resyncs")
            before = resyncs.snapshot()
            client.sql("INSERT INTO t VALUES ('late', 9) WITH CONFIDENCE 0.9")
            replica.request_resync()
            assert replica.step(0.0) is True  # same link: resync, then pull
            assert resyncs.snapshot() == before + 1
            assert replica.position == server.replication.last_seq
            assert database_fingerprints(replica._db) == (
                database_fingerprints(server._db)
            )
        finally:
            client.close()
            replica.stop()


class TestReplicaReads:
    def test_writes_answer_not_primary_with_rotate(self, primary):
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client, count=1)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            raw = ServerClient(
                "127.0.0.1", replica.server.port, user="bob", purpose="ops"
            )
            with pytest.raises(ServerReplyError) as excinfo:
                raw.sql("INSERT INTO t VALUES ('nope', 1) WITH CONFIDENCE 0.5")
            error = excinfo.value.error
            assert error["type"] == "NotPrimaryError"
            assert error["rotate"] is True
            assert error["role"] == "replica"
            raw.close()
        client.close()

    def test_min_seq_beyond_position_is_a_lag_error(self, primary):
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client, count=1)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            replica.server.min_seq_wait = 0.05
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            raw = ServerClient(
                "127.0.0.1", replica.server.port, user="bob", purpose="ops"
            )
            with pytest.raises(ServerReplyError) as excinfo:
                raw.request(
                    {
                        "op": "sql",
                        "sql": "SELECT * FROM t",
                        "min_seq": client.last_write_seq + 100,
                    }
                )
            error = excinfo.value.error
            assert error["type"] == "ReplicaLagError"
            assert error["retryable"] is True
            assert error["min_seq"] == client.last_write_seq + 100
            raw.close()
        client.close()

    def test_multi_endpoint_client_routes_writes_to_the_primary(
        self, primary
    ):
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client, count=1)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            # Replica listed first: the write must rotate, not fail.
            router = RetryingClient(
                endpoints=[
                    f"127.0.0.1:{replica.server.port}",
                    f"127.0.0.1:{server.port}",
                ],
                user="bob",
                purpose="ops",
                sleep=lambda _s: None,
            )
            reply = router.sql(
                "INSERT INTO t VALUES ('routed', 7) WITH CONFIDENCE 0.8"
            )
            assert reply["ok"] is True
            assert router.server_role == "primary"
            assert (
                get_metrics().counter("client.endpoint_rotations").snapshot()
                >= 1
            )
            router.close()
        client.close()

    def test_quarantined_table_reads_are_retryable_errors(self, primary):
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client, count=1)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            replica.server.quarantine.add("t")
            raw = ServerClient(
                "127.0.0.1", replica.server.port, user="bob", purpose="ops"
            )
            with pytest.raises(ServerReplyError) as excinfo:
                raw.sql("SELECT * FROM t")
            error = excinfo.value.error
            assert error["type"] == "QuarantinedTableError"
            assert error["retryable"] is True
            assert error["table"] == "t"
            replica.server.quarantine.clear()
            assert raw.sql("SELECT * FROM t")["count"] == 1
            raw.close()
        client.close()


class TestScrubber:
    def test_clean_state_scrubs_clean(self, tmp_path, primary):
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            data_dir=str(tmp_path / "replica"),
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            report = Scrubber(replica).run_once()
            assert report == {
                "corruption": [],
                "divergent": [],
                "checked": True,
            }
        client.close()

    def test_divergent_table_is_quarantined_then_resynced(self, primary):
        server, policies, db = primary
        client = _client(server)
        _seed_rows(client)
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            # Rot the replica's copy behind the replication stream's
            # back (an in-memory replica journals nothing).
            replica._db.table("t").insert(["phantom", 99], confidence=0.5)
            report = Scrubber(replica).run_once()
            assert report["divergent"] == ["t"]
            assert "t" in replica.server.quarantine
            assert (
                get_metrics().counter("repl.scrub.divergences").snapshot()
                >= 1
            )
            # The requested resync rebuilds the table from a primary
            # snapshot and lifts the quarantine.
            assert _eventually(
                lambda: get_metrics().counter("repl.resyncs").snapshot() >= 1
            )
            assert _eventually(lambda: not replica.server.quarantine)
            assert _eventually(
                lambda: database_fingerprints(replica._db)
                == database_fingerprints(db)
            )
            assert Scrubber(replica).run_once()["divergent"] == []
        client.close()

    def test_wal_corruption_triggers_resync(self, tmp_path, primary):
        server, policies, _db = primary
        client = _client(server)
        _seed_rows(client)
        data_dir = str(tmp_path / "replica")
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            data_dir=data_dir,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            with open(os.path.join(data_dir, WAL_FILE), "r+b") as handle:
                handle.seek(-3, os.SEEK_END)
                handle.write(b"\xff")
            report = Scrubber(replica).run_once()
            assert report["corruption"]
            assert (
                get_metrics().counter("repl.scrub.corruption").snapshot() >= 1
            )
            assert _eventually(
                lambda: get_metrics().counter("repl.resyncs").snapshot() >= 1
            )
            # Post-resync the on-disk log is fresh and verifies clean.
            assert _eventually(
                lambda: Scrubber(replica).run_once()["corruption"] == []
            )
        client.close()
