"""The retrying client: error classification, backoff, idempotency, rids.

Every test runs against a real served socket; fault injection (where
used) is the deterministic seeded injector, never timing games.
"""

from __future__ import annotations

import pytest

from repro.errors import ServerError
from repro.obs import get_metrics
from repro.server import (
    PCQEServer,
    RetryingClient,
    ServerReplyError,
)
from repro.workload import venture_capital_database
from tests.error_codes import raises_code


@pytest.fixture()
def served():
    scenario = venture_capital_database()
    server = PCQEServer(scenario.db, scenario.policies, port=0).start()
    yield server, scenario
    server.stop()


def _client(server, **kwargs) -> RetryingClient:
    kwargs.setdefault("user", "bob")
    kwargs.setdefault("purpose", "investment")
    kwargs.setdefault("sleep", lambda _s: None)  # no real backoff in tests
    return RetryingClient(server.host, server.port, **kwargs)


class TestClassification:
    def test_terminal_errors_raise_immediately(self, served):
        server, _ = served
        retries = get_metrics().counter("server.retries")
        before = retries.value
        with _client(server) as client:
            with pytest.raises(ServerReplyError) as info:
                client.sql("SELECT nonsense FROM nowhere")
        assert retries.value == before  # not a single retry burned
        assert info.value.error.get("retryable", False) is False

    def test_retryable_rejection_retries_without_reconnecting(self, served):
        server, _ = served
        with _client(server, attempts=2) as client:
            server._inflight = server.workers * 4  # sheds sql (class 1)
            try:
                with raises_code(ServerError, "RetriesExhaustedError") as info:
                    client.sql("SELECT * FROM Proposal")
            finally:
                server._inflight = 0
            assert isinstance(info.value.last_error, ServerReplyError)
            assert info.value.last_error.type == "OverloadError"
            # Overload left the socket healthy: no reconnect, and the
            # connection still works once the pressure is gone.
            assert client.reconnects == 0
            assert client.sql("SELECT * FROM Proposal")["count"] == 6

    def test_a_refused_write_back_is_retried_on_the_head(self, served):
        """A commit lands between the session's pin and its ask's
        write-back: the write-back is refused (retryable), the session
        re-pins, and the client's one retry re-solves and applies."""
        server, scenario = served
        read = scenario.proposal_ids["02"]  # read by the strategy's row
        retries = get_metrics().counter("server.retries")
        with _client(server) as client:  # the hello pins the session
            server.mvcc.commit(lambda db: db.apply_confidences({read: 0.2}))
            before = retries.value
            reply = client.ask(scenario.QUERY, 1.0)
        assert reply["status"] == "improved" and reply["improved"] == 1
        assert retries.value == before + 1

    def test_wire_payload_carries_structured_overload_details(self, served):
        server, _ = served
        with _client(server, attempts=1) as client:
            server._inflight = server.workers * 4
            try:
                with raises_code(ServerError, "RetriesExhaustedError") as info:
                    client.sql("SELECT * FROM Proposal")
            finally:
                server._inflight = 0
            payload = info.value.last_error.error
            assert payload["retryable"] is True
            assert payload["priority"] == 1
            assert payload["queue_depth"] == server.workers * 4

    def test_dead_server_exhausts_retries(self):
        scenario = venture_capital_database()
        server = PCQEServer(scenario.db, scenario.policies, port=0).start()
        client = _client(server, attempts=3)
        host, port = server.host, server.port
        server.stop()
        del host, port
        with raises_code(ServerError, "RetriesExhaustedError") as info:
            client.sql("SELECT * FROM Proposal")
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, (OSError, Exception))
        client.close()


class TestTransportRecovery:
    def test_send_fault_reconnects_and_succeeds(self, served, network_fault):
        server, _ = served
        # Occurrence 2: the hello leaves cleanly, the first request dies.
        injector = network_fault("client.send", "disconnect", occurrence=2)
        retries = get_metrics().counter("server.retries")
        before = retries.value
        with _client(server, faults=injector) as client:
            reply = client.sql("SELECT * FROM Proposal")
        assert reply["count"] == 6
        assert injector.tripped
        assert client.reconnects == 1
        assert retries.value == before + 1

    def test_duplicated_reply_is_discarded_by_rid(self, served):
        scenario = venture_capital_database()
        from repro.server import NetworkFaultInjector, NetworkFaultSpec

        injector = NetworkFaultInjector(
            NetworkFaultSpec("server.write", "dup", occurrence=2)
        )
        server = PCQEServer(
            scenario.db, scenario.policies, port=0, faults=injector
        ).start()
        stale = get_metrics().counter("client.stale_replies")
        before = stale.value
        try:
            with _client(server) as client:
                first = client.sql("SELECT * FROM Proposal")
                second = client.sql("SELECT * FROM CompanyInfo")
            assert first["count"] == 6
            assert second["count"] == 5
            assert injector.tripped
            # The duplicate of the first reply was read and dropped while
            # waiting for the second reply's rid.
            assert stale.value == before + 1
        finally:
            server.stop()


class TestIdempotency:
    def test_same_key_replays_the_completed_reply(self, served):
        server, _ = served
        with _client(server) as client:
            message = {
                "op": "sql",
                "sql": "INSERT INTO Proposal VALUES ('Idem', 'P1', 1.0)",
                "idempotency_key": "fixed-key",
            }
            first = client.request(dict(message))
            again = client.request(dict(message))
            client.refresh()
            count = client.sql(
                "SELECT * FROM Proposal WHERE Company = 'Idem'"
            )["count"]
        assert first.get("idempotent_replay") is None
        assert again["idempotent_replay"] is True
        assert again["result"] == first["result"]
        assert count == 1  # executed exactly once

    def test_distinct_requests_mint_distinct_keys(self, served):
        server, _ = served
        with _client(server) as client:
            client.sql("INSERT INTO Proposal VALUES ('D1', 'P1', 1.0)")
            client.sql("INSERT INTO Proposal VALUES ('D2', 'P1', 1.0)")
            client.refresh()
            count = client.sql(
                "SELECT * FROM Proposal WHERE Proposal = 'P1'"
            )["count"]
        assert count == 2  # no accidental dedup across requests

    def test_keys_are_scoped_by_client_id(self, served):
        server, _ = served
        with _client(server, client_id="a") as alice, _client(
            server, client_id="b"
        ) as bob:
            message = {
                "op": "sql",
                "sql": "INSERT INTO Proposal VALUES ('Scoped', 'P1', 1.0)",
                "idempotency_key": "shared",
            }
            alice.request(dict(message))
            reply = bob.request(dict(message))
            bob.refresh()
            count = bob.sql(
                "SELECT * FROM Proposal WHERE Company = 'Scoped'"
            )["count"]
        assert reply.get("idempotent_replay") is None
        assert count == 2  # same key, different clients: both execute

    def test_failed_attempts_are_not_pinned(self, served):
        server, _ = served
        with _client(server) as client:
            message = {
                "op": "sql",
                "sql": "SELECT broken FROM nowhere",
                "idempotency_key": "will-fail",
            }
            with pytest.raises(ServerReplyError):
                client.request(dict(message))
            # The error was not cached: a corrected statement under the
            # same key executes instead of replaying the failure.
            fixed = client.request(
                {
                    "op": "sql",
                    "sql": "SELECT * FROM Proposal",
                    "idempotency_key": "will-fail",
                }
            )
        assert fixed["count"] == 6
        assert fixed.get("idempotent_replay") is None


class TestSurfaceParity:
    def test_ask_profile_and_metrics_work_through_the_retry_layer(
        self, served
    ):
        server, scenario = served
        with _client(server) as client:
            ask = client.ask(scenario.QUERY, fraction=0.0)
            assert ask["status"] == "satisfied"
            profile = client.profile(scenario.QUERY, fraction=0.0)
            assert "pcqe.execute" in profile["profile"]
            assert "server_requests" in client.metrics()
            assert client.refresh() >= 1
