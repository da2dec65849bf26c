"""Chaos tests: the serving stack under injected network failure.

Every fault here is deterministic — a seeded
:class:`~repro.server.faults.NetworkFaultInjector` armed at one (point,
mode, occurrence) cell — never timing games.  The invariants under test:

* **no leaked pins** — an abnormal disconnect (RST mid-session) releases
  the session's snapshot pin: ``mvcc.generation_seqs()`` returns to the
  current-generation baseline (the ISSUE-9 pin-leak regression);
* **quiet half-closed writes** — a peer that resets before its reply is
  written costs one ``server.write_errors`` tick, never an unhandled
  event-loop error;
* **exactly-once DML** — a retry after an ambiguous failure (torn reply,
  dead recv) is deduplicated by idempotency key: the row lands once;
* **bounded requests** — a server-side timeout answers retryably and the
  connection survives the cancellation handshake;
* **graceful drain** — in-flight requests finish, new ones are rejected
  retryably, and nothing accepted is dropped.
"""

from __future__ import annotations

import dataclasses
import socket
import struct
import threading
import time

import pytest

from repro.obs import get_metrics
from repro.server import (
    NetworkFaultInjector,
    PCQEServer,
    RetryingClient,
    ServerClient,
    ServerReplyError,
    iter_network_fault_specs,
)
from repro.server.protocol import recv_frame, send_frame
from repro.workload import venture_capital_database

pytestmark = pytest.mark.chaos


def _serve(**kwargs) -> tuple[PCQEServer, object]:
    scenario = venture_capital_database()
    server = PCQEServer(
        scenario.db, scenario.policies, port=0, **kwargs
    ).start()
    return server, scenario


def _retrying(server, **kwargs) -> RetryingClient:
    kwargs.setdefault("user", "bob")
    kwargs.setdefault("purpose", "investment")
    kwargs.setdefault("sleep", lambda _s: None)
    return RetryingClient(server.host, server.port, **kwargs)


def _rst_close(sock: socket.socket) -> None:
    """Close with RST (SO_LINGER 0): an abnormal disconnect, not a FIN."""
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    sock.close()


def _eventually(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return bool(predicate())


def _pins_released(server: PCQEServer) -> bool:
    return server.mvcc.generation_seqs() == [server.mvcc.current_seq]


class TestPinLeakRegression:
    def test_rst_mid_session_releases_the_snapshot_pin(self):
        """The ISSUE-9 regression: before the disconnect hardening, an
        aborted connection left its session pin held forever, retaining
        every superseded generation."""
        server, _ = _serve()
        sessions = get_metrics().gauge("server.active_sessions")
        baseline = sessions.value
        try:
            sock = socket.create_connection(
                (server.host, server.port), timeout=10
            )
            send_frame(
                sock, {"op": "hello", "user": "bob", "purpose": "investment"}
            )
            assert recv_frame(sock)["ok"] is True
            send_frame(sock, {"op": "sql", "sql": "SELECT * FROM Proposal"})
            assert recv_frame(sock)["ok"] is True
            # A writer commits, so the hung session pins a *superseded*
            # generation — the state a leak would retain forever.
            with ServerClient(
                server.host, server.port, user="alice", purpose="investment"
            ) as writer:
                writer.sql("INSERT INTO Proposal VALUES ('Rst', 'P1', 1.0)")
            assert len(server.mvcc.generation_seqs()) >= 2
            _rst_close(sock)
            assert _eventually(lambda: _pins_released(server)), (
                f"leaked pins: generations "
                f"{server.mvcc.generation_seqs()} vs current "
                f"{server.mvcc.current_seq}"
            )
            assert _eventually(lambda: sessions.value == baseline)
        finally:
            server.stop()


class TestHalfClosedWrites:
    def test_reset_peer_costs_one_write_error_and_stays_quiet(
        self, network_fault
    ):
        """Satellite 2: a reply hitting a dead socket ticks
        ``server.write_errors`` and closes quietly — no unhandled
        connection error, and the server keeps serving."""
        # Delay the reply so the RST provably lands before the write.
        injector = network_fault(
            "server.write", "delay", occurrence=2, delay_s=0.25
        )
        server, _ = _serve(faults=injector)
        metrics = get_metrics()
        write_errors = metrics.counter("server.write_errors")
        connection_errors = metrics.counter("server.connection_errors")
        before_write = write_errors.value
        before_conn = connection_errors.value
        try:
            sock = socket.create_connection(
                (server.host, server.port), timeout=10
            )
            send_frame(
                sock, {"op": "hello", "user": "bob", "purpose": "investment"}
            )
            assert recv_frame(sock)["ok"] is True
            send_frame(sock, {"op": "sql", "sql": "SELECT * FROM Proposal"})
            _rst_close(sock)
            assert _eventually(
                lambda: write_errors.value == before_write + 1
            )
            assert connection_errors.value == before_conn
            assert _eventually(lambda: _pins_released(server))
            # The loop is healthy: a fresh client gets served.
            with ServerClient(
                server.host, server.port, user="bob", purpose="investment"
            ) as probe:
                assert probe.sql("SELECT * FROM Proposal")["count"] == 6
        finally:
            server.stop()


class TestExactlyOnceDml:
    def test_torn_reply_replays_the_committed_write(self, network_fault):
        """The server executed the DML, then the reply frame tore: the
        retry must be served from the idempotency cache, not re-run."""
        injector = network_fault("server.write", "torn_frame", occurrence=2)
        server, _ = _serve(faults=injector)
        try:
            with _retrying(server) as client:
                reply = client.sql(
                    "INSERT INTO Proposal VALUES ('Torn', 'P1', 1.0)"
                )
                assert reply["idempotent_replay"] is True
                assert client.reconnects == 1
                client.refresh()
                count = client.sql(
                    "SELECT * FROM Proposal WHERE Company = 'Torn'"
                )["count"]
            assert injector.tripped
            assert count == 1
        finally:
            server.stop()

    def test_ambiguous_recv_death_is_deduplicated(self, network_fault):
        """The canonical ambiguous failure: the request left, the client
        died waiting for the reply.  Occurrence 3 is the first recv of
        the DML reply (the hello reply consumed hits 1-2)."""
        injector = network_fault("client.recv", "disconnect", occurrence=3)
        server, _ = _serve()
        try:
            with _retrying(server, faults=injector) as client:
                client.sql("INSERT INTO Proposal VALUES ('Ambig', 'P1', 1.0)")
                assert client.reconnects == 1
                client.refresh()
                count = client.sql(
                    "SELECT * FROM Proposal WHERE Company = 'Ambig'"
                )["count"]
            assert injector.tripped
            assert count == 1
        finally:
            server.stop()


class TestRequestTimeouts:
    def test_slow_handler_times_out_retryably_and_connection_survives(self):
        server, _ = _serve(request_timeout=0.15)
        timeouts = get_metrics().counter("server.timeouts")
        before = timeouts.value

        def slow_sql(session, request):
            time.sleep(0.4)  # beyond the timeout, inside the grace window
            return {"ok": True, "slow": True}

        fast_sql = server._ops["sql"]
        server._ops["sql"] = fast_sql._replace(handler=slow_sql)
        try:
            with ServerClient(
                server.host, server.port, user="bob", purpose="investment"
            ) as client:
                with pytest.raises(ServerReplyError) as info:
                    client.sql("SELECT * FROM Proposal")
                assert info.value.type == "RequestTimeoutError"
                assert info.value.error["retryable"] is True
                assert info.value.error["timeout_ms"] == pytest.approx(150.0)
                assert timeouts.value == before + 1
                # The worker yielded inside the grace window, so the
                # connection was not poisoned: it still serves.
                server._ops["sql"] = fast_sql
                assert client.sql("SELECT * FROM Proposal")["count"] == 6
        finally:
            server.stop()

    def test_deadline_pressed_ask_degrades_on_the_wire(self, running_example):
        """A stalling primary under a deadline falls back to greedy; the
        reply carries the ``degraded`` marker end to end."""
        from repro.errors import ReproError
        from repro.increment.runtime import budget_exceeded

        def stall(problem, budget=None):
            if budget is None:
                raise ReproError("stall solver needs a budget")
            while budget.charge():
                pass
            raise budget_exceeded("stall", problem, None)

        stall.__name__ = "stall"
        server = PCQEServer(
            running_example.db,
            running_example.policies,
            port=0,
            solver=stall,
        ).start()
        try:
            with ServerClient(
                server.host, server.port, user="bob", purpose="investment"
            ) as client:
                reply = client.ask(
                    running_example.QUERY, fraction=1.0, deadline_ms=2000.0
                )
            assert reply["degraded"] is True
            assert reply["status"] in ("improved", "satisfied")
        finally:
            server.stop()


class TestGracefulDrain:
    def test_drain_finishes_inflight_rejects_new_and_releases_pins(self):
        server, _ = _serve()

        def slow_sql(session, request):
            time.sleep(0.3)
            return {"ok": True, "slow": True}

        server._ops["sql"] = server._ops["sql"]._replace(handler=slow_sql)
        inflight_reply: dict = {}
        client_a = ServerClient(
            server.host, server.port, user="bob", purpose="investment"
        )
        client_b = ServerClient(
            server.host, server.port, user="alice", purpose="investment"
        )
        host = server.host

        def ask_slow():
            inflight_reply.update(client_a.request({"op": "sql", "sql": "x"}))

        worker = threading.Thread(target=ask_slow)
        worker.start()
        time.sleep(0.1)  # the slow request is in flight
        report: dict = {}
        drainer = threading.Thread(
            target=lambda: report.update(server.drain(timeout=5.0))
        )
        drainer.start()
        assert _eventually(lambda: server._draining)
        # A request arriving during the drain is rejected retryably.
        with pytest.raises(ServerReplyError) as info:
            client_b.request({"op": "sql", "sql": "SELECT * FROM Proposal"})
        assert info.value.type == "ServerDrainingError"
        assert info.value.error["retryable"] is True
        worker.join(timeout=10.0)
        drainer.join(timeout=10.0)
        # The accepted in-flight request was never dropped.
        assert inflight_reply.get("slow") is True
        assert report["drained"] is True
        assert report["inflight"] == 0
        assert get_metrics().gauge("server.draining").value == 0
        # Drain ends in a full stop: pins released, listener closed.
        assert server.mvcc.generation_seqs() == [server.mvcc.current_seq]
        with pytest.raises(OSError):
            socket.create_connection((host, 0), timeout=0.2)
        client_a._closed = True  # the server is gone; skip the bye
        client_b._closed = True

    def test_drain_on_idle_server_checkpoints_and_reports(self):
        server, _ = _serve()
        report = server.drain(timeout=1.0)
        assert report == {
            "drained": True,
            "waited_s": pytest.approx(report["waited_s"]),
            "inflight": 0,
            "checkpoint_bytes": 0,  # the scenario db is not durable
        }


class TestSeededFaultMatrix:
    """One compact sweep of every (point, mode) cell: the retrying
    client must deliver a policy-compliant answer through each, and the
    server must come out pin-clean.  (The full storm with DML and p99
    gates lives in ``benchmarks/chaos_smoke.py``.)"""

    @pytest.mark.parametrize(
        "spec",
        [
            # client.recv counts two hits per frame: occurrence 3 is the
            # first reply after the hello (see TestExactlyOnceDml).
            dataclasses.replace(spec, occurrence=3)
            if spec.point == "client.recv"
            else spec
            for spec in iter_network_fault_specs(seed=11, occurrence=2)
        ],
        ids=lambda spec: f"{spec.point}-{spec.mode}",
    )
    def test_cell_delivers_compliant_results_and_releases_pins(self, spec):
        injector = NetworkFaultInjector(spec)
        server_side = spec.point.startswith("server.")
        server, scenario = _serve(
            faults=injector if server_side else None
        )
        try:
            with _retrying(
                server, faults=None if server_side else injector
            ) as client:
                reply = client.ask(scenario.QUERY, fraction=0.0)
                assert reply["status"] == "satisfied"
                # The confidence policy holds on every delivered tuple.
                assert all(
                    conf > reply["threshold"]
                    for conf in reply["confidences"]
                )
                assert reply["released"] == len(reply["rows"])
            assert injector.tripped, f"{spec} never fired"
            assert _eventually(lambda: _pins_released(server))
        finally:
            server.stop()
