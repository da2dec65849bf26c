"""The socket server: handshake, dispatch, errors, admission control."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ProtocolError, ServerError
from repro.obs import get_metrics
from repro.server import PCQEServer, ServerClient, ServerReplyError
from repro.server.protocol import recv_frame, send_frame
from repro.server.server import _Connection
from repro.workload import venture_capital_database

import socket
from tests.error_codes import raises_code


@pytest.fixture()
def served():
    scenario = venture_capital_database()
    server = PCQEServer(scenario.db, scenario.policies, port=0).start()
    yield server, scenario
    server.stop()


def _wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _client(server, **kwargs) -> ServerClient:
    kwargs.setdefault("user", "bob")
    kwargs.setdefault("purpose", "investment")
    return ServerClient(server.host, server.port, **kwargs)


class TestHandshake:
    def test_hello_reports_session_seq_and_role(self, served):
        server, _ = served
        with _client(server) as client:
            assert client.session_id >= 1
            assert client.seq >= 1
            assert client.role == "Manager"

    def test_first_frame_must_be_hello(self, served):
        server, _ = served
        sock = socket.create_connection((server.host, server.port), timeout=10)
        try:
            send_frame(sock, {"op": "ask", "sql": "SELECT 1"})
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
            assert "hello" in reply["error"]["message"]
        finally:
            sock.close()

    def test_unknown_user_is_a_structured_error(self, served):
        server, _ = served
        with pytest.raises(ServerReplyError) as info:
            _client(server, user="mallory")
        assert info.value.type == "UnknownUserError"

    def test_sessions_get_distinct_ids(self, served):
        server, _ = served
        with _client(server) as a, _client(server) as b:
            assert a.session_id != b.session_id


class TestDispatch:
    def test_ask_releases_rows_with_confidences(self, served):
        server, scenario = served
        with _client(server) as client:
            reply = client.ask(scenario.QUERY, fraction=0.0)
            assert reply["status"] == "satisfied"
            assert len(reply["rows"]) == reply["released"]
            assert len(reply["confidences"]) == reply["released"]

    def test_unknown_op_is_rejected(self, served):
        server, _ = served
        with _client(server) as client:
            with pytest.raises(ServerReplyError) as info:
                client.request({"op": "explode"})
            assert info.value.type == "ProtocolError"

    def test_sql_errors_come_back_structured(self, served):
        server, _ = served
        with _client(server) as client:
            with pytest.raises(ServerReplyError) as info:
                client.sql("SELECT nonsense FROM nowhere")
            assert "nowhere" in str(info.value)
            # The connection survives an application error.
            assert client.sql("SELECT * FROM Proposal")["count"] == 6

    def test_profile_attaches_a_stage_report(self, served):
        server, scenario = served
        with _client(server) as client:
            reply = client.profile(scenario.QUERY, fraction=0.0)
            assert "pcqe.execute" in reply["profile"]

    def test_metrics_exposition_includes_server_series(self, served):
        server, _ = served
        with _client(server) as client:
            client.sql("SELECT * FROM Proposal")
            text = client.metrics()
        assert "server_requests" in text
        assert "server_request_latency_seconds" in text

    def test_metrics_exposition_includes_the_plan_cache_counters(self, served):
        server, scenario = served
        with _client(server) as client:
            client.ask(scenario.QUERY, fraction=0.0)
            client.ask(scenario.QUERY, fraction=0.0)
            text = client.metrics()
        # (invalidations shows once one has happened — the registry is
        # get-or-create — and is covered by tests/unit/test_plan_cache.py)
        for counter in ("hits", "misses"):
            assert f"sql_plan_cache_{counter}_total" in text

    def test_dml_and_refresh_move_the_session_seq(self, served):
        server, _ = served
        with _client(server) as writer, _client(server) as reader:
            pinned = reader.seq
            writer.sql("INSERT INTO Proposal VALUES ('NewCo', 'P9', 5.0)")
            assert reader.sql("SELECT * FROM Proposal")["count"] == 6
            assert reader.seq == pinned
            assert reader.refresh() > pinned
            assert reader.sql("SELECT * FROM Proposal")["count"] == 7


    def test_a_replay_of_an_in_flight_key_shares_its_run(self):
        """The second request under a key arrives while the first still
        runs: it waits on the first's in-flight future — one execution,
        two equal replies, the second flagged — through ``handle``."""
        scenario = venture_capital_database()
        server = PCQEServer(scenario.db, scenario.policies)
        started, looked_up = threading.Event(), threading.Event()
        calls, replies = [], {}
        lookup, row = server._idempotency.get, server._ops["sql"]

        def spied_lookup(key):
            entry = lookup(key)
            if calls:  # the first run is in its handler
                looked_up.set()
            return entry

        def slow(session, frame):
            calls.append(frame)
            started.set()
            assert looked_up.wait(5.0)  # the replay found the run in flight
            return row.handler(session, frame)

        server._idempotency.get = spied_lookup
        server._ops["sql"] = row._replace(handler=slow)
        frame = {"op": "sql", "idempotency_key": "k",
                 "sql": "INSERT INTO Proposal VALUES ('Once', 'P1', 1.0)"}

        def converse(name):
            conn = _Connection()
            hello = {"op": "hello", "user": "bob", "purpose": "investment",
                     "client_id": "c"}
            assert server.handle(conn, hello)[0]["ok"]
            replies[name] = server.handle(conn, frame)[0]
            server.hang_up(conn)

        first = threading.Thread(target=converse, args=("first",))
        first.start()
        assert started.wait(5.0)
        second = threading.Thread(target=converse, args=("second",))
        second.start()
        first.join(10.0)
        second.join(10.0)
        server.stop()
        assert len(calls) == 1
        assert replies["first"]["ok"] and "idempotent_replay" not in (
            replies["first"]
        )
        assert replies["second"] == {**replies["first"],
                                     "idempotent_replay": True}


class TestAdmissionControl:
    def test_admit_rejects_when_projection_exceeds_deadline(self, served):
        server, _ = served
        server._service_ewma = 10.0  # seconds per request
        server._inflight = server.workers  # a full pool ahead of us
        try:
            with raises_code(ServerError, "AdmissionError") as info:
                server._admit("ask", 50.0)
        finally:
            server._inflight = 0
        error = info.value
        assert error.deadline_ms == 50.0
        assert error.projected_wait_ms >= 10_000.0 * (1 - 1e-9)
        assert error.queue_depth == server.workers
        assert set(error.details()) == {
            "deadline_ms",
            "projected_wait_ms",
            "queue_depth",
        }

    def test_admit_accepts_with_headroom_and_counts_inflight(self, served):
        server, _ = served
        assert server._admit("ask", 60_000.0) is None
        assert server._inflight == 1
        server._finish(0.01)
        assert server._inflight == 0
        assert server._service_ewma > 0.0

    def test_no_deadline_skips_the_deadline_gate(self, served):
        # A slow EWMA alone cannot reject a request without a deadline;
        # only the load shedder's queue-depth limit applies (and below
        # it, the request is admitted no matter the projection).
        server, _ = served
        server._service_ewma = 100.0
        server._inflight = server.workers  # busy, but under the shed limit
        try:
            assert server._admit("ask", None) is None
        finally:
            server._inflight = 0

    def test_bad_deadline_is_a_protocol_error(self, served):
        server, _ = served
        # NaN (JSON decodes the token) would disable both the shed test
        # and the request-timeout cap; ``true`` is no duration.
        for deadline_ms in (-5, "soon", float("nan"), True):
            with pytest.raises(ProtocolError):
                server._admit("ask", deadline_ms)

    def test_rejection_travels_the_wire_with_details(self, served):
        server, _ = served
        with _client(server) as client:
            server._service_ewma = 10.0
            server._inflight = server.workers
            try:
                with pytest.raises(ServerReplyError) as info:
                    client.ask("SELECT * FROM Proposal", deadline_ms=1.0)
            finally:
                server._inflight = 0
            assert info.value.type == "AdmissionError"
            assert info.value.error["queue_depth"] == server.workers
            assert info.value.error["projected_wait_ms"] > 1.0
            assert get_metrics().counter("server.rejected").value >= 1


class TestLifecycle:
    def test_stop_releases_session_pins(self):
        scenario = venture_capital_database()
        server = PCQEServer(scenario.db, scenario.policies, port=0).start()
        client = _client(server)
        pinned = client.seq
        server.stop()
        # After stop, no generation but the current survives (pins freed).
        assert server.mvcc.generation_seqs() == [server.mvcc.current_seq]
        assert pinned <= server.mvcc.current_seq

    def test_double_start_is_an_error(self, served):
        server, _ = served
        from repro.errors import ServerError

        with pytest.raises(ServerError):
            server.start()

    def test_stop_is_idempotent(self):
        scenario = venture_capital_database()
        server = PCQEServer(scenario.db, scenario.policies, port=0).start()
        server.stop()
        server.stop()

    def test_drain_wakes_when_the_last_request_settles(self):
        """Drain sleeps on a condition, not a poll: it moves
        on as soon as the one in-flight request's reply is written."""
        scenario = venture_capital_database()
        server = PCQEServer(scenario.db, scenario.policies, port=0).start()
        release = threading.Event()

        def held_sql(session, request):
            release.wait(timeout=5.0)
            return {"ok": True}

        server._ops["sql"] = server._ops["sql"]._replace(handler=held_sql)
        client = _client(server)
        replies: list = []
        asker = threading.Thread(
            target=lambda: replies.append(client.request({"op": "sql"}))
        )
        asker.start()
        _wait_until(lambda: server._inflight == 1)
        woke: list = []
        stop = server.stop
        server.stop = lambda: (woke.append(time.monotonic()), stop())
        report: dict = {}
        drainer = threading.Thread(
            target=lambda: report.update(server.drain(timeout=5.0))
        )
        drainer.start()
        _wait_until(lambda: server._draining)
        release.set()
        asker.join(timeout=5.0)
        answered = time.monotonic()
        drainer.join(timeout=5.0)
        assert not asker.is_alive() and not drainer.is_alive()
        assert replies and replies[0]["ok"] is True
        assert report["drained"] is True and report["inflight"] == 0
        assert woke[0] - answered < 0.05
        client._closed = True  # the server is gone; skip the bye

    def test_a_rejected_or_never_started_server_leaves_no_commit_listener(
        self, tmp_path
    ):
        """Regression: ``request_timeout`` used to be validated *after*
        the replication feed attached its commit listener, and ``stop()``
        returned early on a never-started server — each leaked a feed
        (up to 4 MiB, appended to on every later commit) on the caller's
        durable database."""
        from repro.errors import ServerError
        from repro.policy import PolicyStore
        from repro.storage.database import Database

        db = Database.open(str(tmp_path))
        listeners = db._durability._listeners
        try:
            with pytest.raises(ServerError):
                PCQEServer(db, PolicyStore(), request_timeout=0)
            assert len(listeners) == 0
            never_started = PCQEServer(db, PolicyStore())
            assert len(listeners) == 1
            never_started.stop()
            assert len(listeners) == 0
            never_started.stop()  # still idempotent
        finally:
            db.close()
