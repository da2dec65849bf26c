"""The op table × connection kind: every frame routes to one documented
outcome, and every refusal of a decoded request carries its ``rid``.

The matrix below *is* the documentation (docs/SERVING.md, "The request
pipeline"): a fresh connection becomes a client session with ``hello`` or
a replication link with its first ``repl.*`` frame — never both — and
each kind serves its own family of ops, refuses the other's, and either
keeps the conversation or hangs up.
"""

from __future__ import annotations

import socket

import pytest

from repro.errors import ProtocolError
from repro.server import PCQEServer
from repro.server.protocol import recv_frame, send_frame
from repro.sql import execute_sql
from repro.storage.database import Database
from tests.golden_wire import policies
from tests.loopback import LoopbackSocket

RID = 77

#: A valid body for every registered op (plus conversation control).
BODIES = {
    "hello": {"user": "bob", "purpose": "ops"},
    "bye": {},
    "ask": {"sql": "SELECT name FROM t"},
    "profile": {"sql": "SELECT name FROM t"},
    "sql": {"sql": "SELECT name FROM t"},
    "refresh": {},
    "metrics": {},
    "repl.handshake": {"replica": "r1"},
    "repl.pull": {"from_seq": 0},
    "repl.snapshot": {},
    "repl.digest": {"from_seq": 0, "to_seq": 0},
    "repl.fingerprints": {},
    # Nobody registered these two.
    "frobnicate": {},
    "repl.bogus": {},
}
SESSION_OPS = {"ask", "profile", "sql", "refresh", "metrics"}
LINK_OPS = {op for op in BODIES if op.startswith("repl.")} - {"repl.bogus"}

FIRST_FRAME = "first frame must be 'hello'"
NOT_ON_SESSION = "replication ops are not valid on a client session"
NOT_ON_LINK = "this connection is a replication link"


def expected(op: str, kind: str) -> "tuple[str | None, bool]":
    """(refusal text or None when served, does the server hang up?)."""
    if kind == "fresh":
        if op == "hello" or op == "repl.handshake":
            return None, False
        if op == "repl.bogus":
            return "unknown replication op 'repl.bogus'", False
        if op in LINK_OPS:  # the link exists now, but has not introduced itself
            return f"{op} before repl.handshake", False
        return FIRST_FRAME, True
    if kind == "session":
        if op == "bye":
            return None, True
        if op in SESSION_OPS:
            return None, False
        if op.startswith("repl."):
            return NOT_ON_SESSION, False
        return f"unknown op {op!r}", False
    if op in LINK_OPS:
        return None, False
    if op == "repl.bogus":
        return "unknown replication op 'repl.bogus'", False
    return NOT_ON_LINK, True


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    db = Database.open(str(tmp_path_factory.mktemp("routing")))
    with PCQEServer(db, policies(), port=0) as server:
        sock = _connect(server, "session")
        send_frame(sock, {"op": "sql", "sql": "CREATE TABLE t (name TEXT)"})
        assert recv_frame(sock)["ok"] is True
        sock.close()
        yield server
    db.close()


def _connect(server: PCQEServer, kind: str) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=10)
    opener = {"session": "hello", "replication": "repl.handshake"}.get(kind)
    if opener is not None:
        send_frame(sock, {"op": opener, **BODIES[opener]})
        assert recv_frame(sock)["ok"] is True
    return sock


def test_the_table_is_built_once_and_covers_both_families(server):
    table = server._ops
    assert {op for op, row in table.items() if row.kind == "session"} == (
        SESSION_OPS
    )
    assert {op for op, row in table.items() if row.kind == "replication"} == (
        LINK_OPS
    )
    assert all(row.fence is not None for op, row in table.items()
               if op in LINK_OPS)
    sock = _connect(server, "session")
    send_frame(sock, {"op": "refresh"})
    assert recv_frame(sock)["ok"] is True
    sock.close()
    assert server._ops is table  # not rebuilt per request


@pytest.mark.parametrize("kind", ["fresh", "session", "replication"])
@pytest.mark.parametrize("op", sorted(BODIES))
def test_every_op_on_every_kind_of_connection(server, op, kind):
    refusal, hangs_up = expected(op, kind)
    sock = _connect(server, kind)
    try:
        send_frame(sock, {"op": op, "rid": RID, **BODIES[op]})
        reply = recv_frame(sock)
        assert reply["rid"] == RID
        if refusal is None:
            assert reply["ok"] is True, reply
        else:
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
            assert refusal in reply["error"]["message"]
        if hangs_up:
            with pytest.raises(ProtocolError, match="closed"):
                recv_frame(sock)
        else:
            # Still talking: any frame gets an answer.
            send_frame(sock, {"op": "repl.bogus", "rid": RID + 1})
            assert recv_frame(sock)["rid"] == RID + 1
    finally:
        sock.close()


@pytest.mark.parametrize(
    "arrange, frame, error_type",
    [
        (lambda s: setattr(s, "_draining", True),
         {"op": "sql", "sql": "SELECT name FROM t"}, "ServerDrainingError"),
        (lambda s: setattr(s, "_inflight", s.workers * 2),
         {"op": "ask", "sql": "SELECT name FROM t"}, "OverloadError"),
        (lambda s: (setattr(s, "_inflight", s.workers),
                    setattr(s, "_service_ewma", 10.0)),
         {"op": "sql", "sql": "SELECT name FROM t", "deadline_ms": 1.0},
         "AdmissionError"),
        (lambda s: None,
         {"op": "sql", "sql": "SELECT name FROM t", "deadline_ms": "soon"},
         "ProtocolError"),
        (lambda s: None,
         {"op": "sql", "sql": "SELECT name FROM t", "idempotency_key": 7},
         "ProtocolError"),
        (lambda s: None, {"op": "sql", "sql": "SELEKT"}, "SqlSyntaxError"),
        (lambda s: None,
         {"op": "refresh", "min_seq": 10**9}, "ReplicaLagError"),
    ],
)
def test_every_pipeline_refusal_carries_the_rid(
    server, arrange, frame, error_type
):
    sock = _connect(server, "session")
    saved = (server._draining, server._inflight, server._service_ewma,
             server.min_seq_wait)
    server.min_seq_wait = 0.01
    try:
        arrange(server)
        send_frame(sock, {**frame, "rid": RID})
        reply = recv_frame(sock)
    finally:
        (server._draining, server._inflight, server._service_ewma,
         server.min_seq_wait) = saved
        sock.close()
    assert reply["ok"] is False
    assert reply["error"]["type"] == error_type
    assert reply["rid"] == RID


#: Every wire field that must be a number: the frame that carries it.  A
#: JSON ``true`` / ``false`` decodes to a Python ``bool`` — an ``int`` to
#: ``isinstance`` — and must be refused (or, for an ack, ignored) exactly
#: as a string is.
NUMBER_FIELDS = {
    "fraction": {"op": "ask", "sql": "SELECT name FROM t"},
    "min_seq": {"op": "sql", "sql": "SELECT name FROM t"},
    "max_frames": {"op": "repl.pull", "from_seq": 0},
    "last_seq": {"op": "repl.handshake", "replica": "r1"},
    "applied": {"op": "repl.pull", "from_seq": 0},
    "epoch": {"op": "repl.pull", "from_seq": 0},
    "from_seq": {"op": "repl.pull"},
    "wait_ms": {"op": "repl.pull", "from_seq": 0},
    "to_seq": {"op": "repl.digest", "from_seq": 0},
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_a_json_bool_is_no_number(tmp_path, field, value):
    db = Database.open(str(tmp_path))
    execute_sql(db, "CREATE TABLE t (name TEXT)")
    execute_sql(db, "INSERT INTO t VALUES ('a') WITH CONFIDENCE 0.9")
    server = PCQEServer(db, policies())

    def answer(sent: object) -> dict:
        frame = {**NUMBER_FIELDS[field], field: sent, "rid": RID}
        sock = LoopbackSocket(server)
        opener = "hello" if frame["op"] in SESSION_OPS else "repl.handshake"
        if frame["op"] != opener:
            send_frame(sock, {"op": opener, **BODIES[opener]})
            assert recv_frame(sock)["ok"] is True
        send_frame(sock, frame)
        reply = recv_frame(sock)
        sock.close()
        return reply

    try:
        as_string, as_bool = answer("x"), answer(value)
        assert as_bool["ok"] is as_string["ok"]
        if not as_bool["ok"]:
            assert as_bool["error"]["type"] == "ProtocolError"
            assert as_bool["error"]["message"] == (
                as_string["error"]["message"].replace("'x'", repr(value))
            )
        # No semi-sync acknowledgement from a peer that sent no integer.
        assert server.replication.wait_for_acks(0, 1, 0.0) == 0
    finally:
        server.stop()
        db.close()
