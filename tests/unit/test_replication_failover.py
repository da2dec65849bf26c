"""Failover: semi-sync acks, promotion, epoch fencing, durable replay."""

from __future__ import annotations

import socket

import pytest

from repro.errors import ServerError
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.policy import PolicyStore
from repro.server import (
    PCQEServer,
    Replica,
    RetryingClient,
    ServerClient,
    ServerReplyError,
    recv_frame,
    send_frame,
)
from repro.storage.database import Database
from tests.error_codes import raises_code


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


def _client(port: int, **kwargs) -> RetryingClient:
    kwargs.setdefault("user", "bob")
    kwargs.setdefault("purpose", "ops")
    kwargs.setdefault("sleep", lambda _s: None)
    return RetryingClient(endpoints=[f"127.0.0.1:{port}"], **kwargs)


def _raw_session(port: int, client_id: str) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    send_frame(
        sock,
        {
            "op": "hello",
            "user": "bob",
            "purpose": "ops",
            "client_id": client_id,
        },
    )
    reply = recv_frame(sock)
    assert reply["ok"], reply
    return sock


def _rpc(sock: socket.socket, **message) -> dict:
    send_frame(sock, message)
    return recv_frame(sock)


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


class TestSemiSync:
    def test_acknowledged_commit_waits_for_a_replica(self, primary):
        server, policies, _db = primary
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            server.min_sync_replicas = 1
            client = _client(server.port)
            client.sql("CREATE TABLE t (name TEXT)")
            reply = client.sql(
                "INSERT INTO t VALUES ('synced') WITH CONFIDENCE 0.9"
            )
            # The ack implies the replica durably applied this seq.
            assert replica.position >= reply["seq"]
            client.close()

    def test_sync_timeout_is_retryable_and_keeps_the_commit(self, primary):
        server, _policies_, _db = primary
        client = ServerClient(
            "127.0.0.1", server.port, user="bob", purpose="ops"
        )
        client.sql("CREATE TABLE t (name TEXT)")
        server.min_sync_replicas = 1
        server.sync_timeout = 0.05
        with pytest.raises(ServerReplyError) as excinfo:
            client.sql("INSERT INTO t VALUES ('slow') WITH CONFIDENCE 0.9")
        error = excinfo.value.error
        assert error["type"] == "ReplicationTimeoutError"
        assert error["retryable"] is True
        assert error["required"] == 1
        assert error["acked"] == 0
        assert get_metrics().counter("server.sync_timeouts").snapshot() >= 1
        # The write is durable on the primary — only the ack is missing.
        server.min_sync_replicas = 0
        assert client.sql("SELECT * FROM t")["count"] == 1
        client.close()

    def test_retry_after_sync_timeout_deduplicates(self, primary):
        server, policies, _db = primary
        raw = _raw_session(server.port, "client-a")
        assert _rpc(raw, op="sql", sql="CREATE TABLE t (name TEXT)")["ok"]
        server.min_sync_replicas = 1
        server.sync_timeout = 0.05
        reply = _rpc(
            raw,
            op="sql",
            sql="INSERT INTO t VALUES ('once') WITH CONFIDENCE 0.9",
            idempotency_key="k1",
        )
        assert reply["error"]["type"] == "ReplicationTimeoutError"
        # A replica shows up; the retried write re-waits for the ack and
        # reports success without applying a second time.
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ):
            retried = _rpc(
                raw,
                op="sql",
                sql="INSERT INTO t VALUES ('once') WITH CONFIDENCE 0.9",
                idempotency_key="k1",
            )
            assert retried["ok"], retried
            assert _rpc(raw, op="sql", sql="SELECT * FROM t")["count"] == 1
        raw.close()


class TestPromotion:
    def test_promotion_makes_the_replica_writable(self, primary):
        server, policies, _db = primary
        client = _client(server.port)
        client.sql("CREATE TABLE t (name TEXT)")
        client.sql("INSERT INTO t VALUES ('pre') WITH CONFIDENCE 0.9")
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            server.stop()
            assert replica.promote() == 2
            assert replica.server.role == "primary"
            assert replica.server.epoch == 2
            promoted = _client(replica.server.port)
            assert promoted.sql("SELECT * FROM t")["count"] == 1
            reply = promoted.sql(
                "INSERT INTO t VALUES ('post') WITH CONFIDENCE 0.9"
            )
            assert reply["seq"] > client.last_write_seq
            promoted.close()
        client.close()

    def test_promotion_is_idempotent_and_epochs_are_monotonic(self, primary):
        server, policies, _db = primary
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            with pytest.raises(ServerError):
                replica.promote(epoch=1)  # not an advance
            assert not replica.promoted  # failed promotion left no mark
            assert replica.promote(epoch=7) == 7
            assert replica.promote() == 7  # second call is a no-op
            assert replica.epoch == 7

    def test_auto_promotion_after_primary_silence(self, no_new_threads):
        """Driven by ``step(now)``: the first step starts the silence
        clock, and a step ``auto_promote_after`` later with no primary
        reachable promotes."""
        with socket.socket() as unreachable:  # bound, never listening
            unreachable.bind(("127.0.0.1", 0))
            replica = Replica(
                ["%s:%d" % unreachable.getsockname()],
                _policies(),
                auto_promote_after=0.2,
            )
            try:
                assert replica.step(0.0) is False
                assert not replica.promoted
                assert replica.step(0.2) is False
                assert replica.promoted
                assert replica.epoch == 2
                assert replica.server.role == "primary"
                metrics = get_metrics()
                assert metrics.counter("repl.auto_promotions").snapshot() == 1
                assert metrics.counter("repl.endpoint_rotations").snapshot() == 2
            finally:
                replica.stop()


class TestEpochFencing:
    def test_deposed_primary_fences_on_a_higher_epoch(self, primary):
        server, _policies_, _db = primary
        sock = socket.create_connection(
            ("127.0.0.1", server.port), timeout=10.0
        )
        reply = _rpc(
            sock,
            **{
                "op": "repl.handshake",
                "replica": "new-reign",
                "epoch": 99,
                "last_seq": 0,
            },
        )
        assert not reply["ok"]
        assert reply["error"]["type"] == "StaleEpochError"
        # The *server* is the stale party: it reports its own epoch as
        # stale and the peer's as current.
        assert reply["error"]["stale_epoch"] == 1
        assert reply["error"]["current_epoch"] == 99
        assert get_metrics().counter("server.fenced").snapshot() >= 1
        sock.close()

    def test_replica_rejects_a_lower_epoch_peer(self, primary):
        server, policies, _db = primary
        replica = Replica([f"127.0.0.1:{server.port}"], policies)
        try:
            # As if this node already served under a newer reign: the
            # handshake announces epoch 5, so the epoch-1 primary fences
            # itself rather than feeding a stale stream, and the step
            # moves on to the next endpoint.
            replica.epoch = 5
            assert replica.step(0.0) is False
            assert replica.epoch == 5  # never regressed to the peer's
            metrics = get_metrics()
            assert metrics.counter("server.fenced").snapshot() == 1
            assert metrics.counter("repl.endpoint_rotations").snapshot() == 1
            assert replica.position == 0
            # Second layer, for a peer that answers ok with an older
            # epoch anyway: the replica refuses to adopt it.
            with raises_code(ServerError, "StaleEpochError"):
                replica._adopt_epoch(1)
            assert (
                metrics.counter("repl.stale_frames_rejected").snapshot() == 1
            )
        finally:
            replica.stop()


class TestDurableReplay:
    """A retried (client, key) is answered from the replicated state —
    ``idempotent_replay``, the same ``seq``, one row — whatever happened to
    the node between the write and the retry."""

    @pytest.mark.parametrize(
        "between",
        ["failover", "crash-reopen", "drain-reopen", "checkpoint-bootstrap"],
    )
    def test_idempotent_replay_across_failover(self, tmp_path, primary, between):
        server, policies, db = primary
        setup = _raw_session(server.port, "client-a")
        assert _rpc(setup, op="sql", sql="CREATE TABLE t (name TEXT)")["ok"]
        written = _rpc(
            setup,
            op="sql",
            sql="INSERT INTO t VALUES ('x') WITH CONFIDENCE 0.9",
            idempotency_key="k1",
        )
        assert written["ok"], written
        replica = None
        if between in ("failover", "checkpoint-bootstrap"):
            if between == "checkpoint-bootstrap":
                # The log is compacted and the primary restarted, so the
                # fresh replica below can only bootstrap from repl.snapshot:
                # the key must arrive in the snapshot, not in a frame.
                setup.close()
                db.checkpoint()
                server.stop()
                db.close()
                db = Database.open(str(tmp_path / "primary"))
                server = PCQEServer(db, policies, port=0).start()
                assert len(server.replication.feed) == 0
            replica = Replica(
                [f"127.0.0.1:{server.port}"],
                policies,
                data_dir=str(tmp_path / "replica"),
                pull_interval=0.01,
                wait_ms=50,
            ).start()
            survivor = replica.server
        try:
            if replica is not None:
                assert replica.wait_for_position(written["seq"], 5.0)
                setup.close()
                server.stop()
                replica.promote()
            else:
                setup.close()
                if between == "drain-reopen":
                    assert server.drain()["checkpoint_bytes"] > 0
                else:
                    server.stop()  # no checkpoint: the marker is in the WAL
                db.close()
                db = Database.open(str(tmp_path / "primary"))
                server = survivor = PCQEServer(db, policies, port=0).start()
            # The retried write carries the same (client, key); whichever
            # node answers learned it with the write — from the log, a
            # snapshot, or the replicated stream — and does not apply twice.
            retry = _raw_session(survivor.port, "client-a")
            replayed = _rpc(
                retry,
                op="sql",
                sql="INSERT INTO t VALUES ('x') WITH CONFIDENCE 0.9",
                idempotency_key="k1",
            )
            assert replayed["ok"], replayed
            assert replayed.get("idempotent_replay") is True
            assert replayed["seq"] == written["seq"]
            assert _rpc(retry, op="sql", sql="SELECT * FROM t")["count"] == 1
            retry.close()
        finally:
            if replica is not None:
                replica.stop()
            server.stop()
            db.close()


class TestClientFailover:
    def test_client_follows_the_promotion(self, primary):
        server, policies, _db = primary
        client = _client(server.port)
        client.sql("CREATE TABLE t (name TEXT)")
        client.sql("INSERT INTO t VALUES ('pre') WITH CONFIDENCE 0.9")
        with Replica(
            [f"127.0.0.1:{server.port}"],
            policies,
            pull_interval=0.01,
            wait_ms=50,
        ) as replica:
            assert replica.wait_for_position(client.last_write_seq, 5.0)
            survivor = RetryingClient(
                endpoints=[
                    f"127.0.0.1:{server.port}",
                    f"127.0.0.1:{replica.server.port}",
                ],
                user="bob",
                purpose="ops",
                sleep=lambda _s: None,
            )
            assert survivor.sql("SELECT * FROM t")["count"] == 1
            server.stop()
            replica.promote()
            reply = survivor.sql(
                "INSERT INTO t VALUES ('post') WITH CONFIDENCE 0.9"
            )
            assert reply["ok"] is True
            assert survivor.server_role == "primary"
            assert survivor.epoch == 2
            assert survivor.sql("SELECT * FROM t")["count"] == 2
            survivor.close()
        client.close()
