"""The golden wire transcript: one scripted conversation and its recorder.

``tests/golden_wire.json`` holds every reply frame the server sent to the
conversation below at the commit *before* the request path became one
staged pipeline over one op table.  ``tests/unit/test_golden_wire.py``
replays the conversation and compares each reply's JSON text with ``==``
— key order included — so a refusal that moved, lost its ``rid``, changed
its wording or stopped closing the connection shows up as a diff.  (The
``repeat-*`` steps — one ask sent three times — were added with the plan
cache and recorded by running this script on a clone of the commit
before it.)  Only
session ids (a process-global counter) are masked.  Nothing but raw
sockets, the public constructors and ``server._draining`` is used, which
is what lets the same file run on both sides of the rewrite.

The socket comes from a factory: :func:`tcp` dials a started server,
:class:`tests.loopback.LoopbackSocket` hands each frame to
``server.handle`` on this thread, so one conversation runs over both.

Re-record (only when a wire reply is *meant* to change)::

    PYTHONPATH=src python -m tests.golden_wire
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import ProtocolError
from repro.policy import PolicyStore
from repro.server import PCQEServer, encode_frame, recv_frame
from repro.storage.database import Database

GOLDEN_PATH = Path(__file__).with_name("golden_wire.json")

#: What a step records when the server closed the connection instead of
#: (or after) replying.
CLOSED = "<closed>"


def policies() -> PolicyStore:
    policies = PolicyStore(default_threshold=0.0)
    policies.add_role("Manager")
    policies.add_purpose("ops")
    policies.add_user("bob", roles=["Manager"])
    policies.add_policy("Manager", "ops", 0.5)
    return policies


def tcp(server: PCQEServer) -> socket.socket:
    """A real connection to a started *server*."""
    return socket.create_connection((server.host, server.port), timeout=10)


#: ``connect(server) -> socket``: :func:`tcp` or a loopback factory.
Connect = Callable[[PCQEServer], Any]


class _Wire:
    """One raw connection, made by *connect*; every reply lands in the
    shared transcript."""

    def __init__(
        self, connect: Connect, server: PCQEServer, name: str, transcript: list
    ) -> None:
        self.name = name
        self.transcript = transcript
        self.sock = connect(server)

    def read(self, step: str) -> "dict[str, Any] | None":
        try:
            reply = recv_frame(self.sock)  # keys in wire order
        except ProtocolError:
            self.transcript.append([f"{self.name}: {step}", CLOSED])
            return None
        if "session" in reply:
            reply["session"] = "<session>"
        self.transcript.append(
            [f"{self.name}: {step}", json.dumps(reply, separators=(",", ":"))]
        )
        return reply

    def send(self, step: str, message: dict[str, Any]) -> "dict[str, Any] | None":
        self.sock.sendall(encode_frame(message))
        return self.read(step)

    def send_bytes(self, step: str, data: bytes) -> None:
        self.sock.sendall(data)
        self.read(step)

    def expect_closed(self) -> None:
        """Record that the server hung up after its last reply."""
        self.read("then")
        self.sock.close()


#: ``dial(name)``: a new named wire to the server under test.
Dial = Callable[[str], _Wire]


def _client_session(server: PCQEServer, dial: Dial) -> None:
    wire = dial("session")
    wire.send("hello", {"op": "hello", "user": "bob", "purpose": "ops",
                        "client_id": "golden", "rid": 1})
    wire.send("create", {"op": "sql", "rid": 2,
                         "sql": "CREATE TABLE t (name TEXT, qty INT)"})
    insert = {"op": "sql", "idempotency_key": "k1",
              "sql": "INSERT INTO t VALUES ('a', 1) WITH CONFIDENCE 0.9"}
    wire.send("dml with key", {**insert, "rid": 3})
    wire.send("dml with key again", {**insert, "rid": 4})
    wire.send("dml low confidence", {
        "op": "sql", "rid": 5,
        "sql": "INSERT INTO t VALUES ('b', 2) WITH CONFIDENCE 0.2"})
    wire.send("ask", {"op": "ask", "sql": "SELECT name, qty FROM t",
                      "fraction": 1.0, "rid": 6})
    wire.send("ask fraction 0", {"op": "ask", "sql": "SELECT name FROM t",
                                 "fraction": 0, "rid": 7})
    wire.send("select", {"op": "sql", "sql": "SELECT * FROM t", "rid": 8})
    wire.send("no rid", {"op": "sql", "sql": "SELECT name FROM t"})
    wire.send("refresh", {"op": "refresh", "rid": 9})
    wire.send("unknown op", {"op": "frobnicate", "rid": 10})
    wire.send("op not a string", {"op": ["ask"], "rid": 11})
    wire.send("hello twice", {"op": "hello", "user": "bob",
                              "purpose": "ops", "rid": 12})
    wire.send("deadline_ms string", {"op": "ask", "sql": "SELECT name FROM t",
                                     "deadline_ms": "soon", "rid": 13})
    wire.send("deadline_ms negative", {"op": "sql", "sql": "SELECT name FROM t",
                                       "deadline_ms": -5, "rid": 14})
    wire.send("fraction string", {"op": "ask", "sql": "SELECT name FROM t",
                                  "fraction": "half", "rid": 15})
    wire.send("min_seq string", {"op": "sql", "sql": "SELECT name FROM t",
                                 "min_seq": "x", "rid": 16})
    wire.send("min_seq negative", {"op": "refresh", "min_seq": -1, "rid": 17})
    # Handler failures count against the connection's breaker (threshold
    # 5); a success in between keeps it closed so every refusal shows.
    wire.send("breaker reset", {"op": "refresh", "rid": 117})
    wire.send("idempotency_key int", {"op": "sql", "sql": "SELECT name FROM t",
                                      "idempotency_key": 7, "rid": 18})
    wire.send("ask without sql", {"op": "ask", "rid": 19})
    wire.send("sql blank", {"op": "sql", "sql": "  ", "rid": 20})
    wire.send("breaker reset", {"op": "refresh", "rid": 120})
    wire.send("syntax error", {"op": "sql", "sql": "SELEKT 1", "rid": 21})
    wire.send("unknown table", {"op": "ask", "sql": "SELECT x FROM nowhere",
                                "rid": 22})
    wire.send("repl op on a session", {"op": "repl.pull", "from_seq": 0,
                                       "rid": 23})
    wire.send("unknown repl op on a session", {"op": "repl.bogus", "rid": 24})
    wire.send("still serving", {"op": "sql", "sql": "SELECT name FROM t",
                                "rid": 25})
    wire.send("bye", {"op": "bye", "rid": 26})
    wire.expect_closed()


def _replication_link(server: PCQEServer, dial: Dial) -> None:
    wire = dial("link")
    wire.send("pull before handshake", {"op": "repl.pull", "from_seq": 0,
                                        "rid": 1})
    wire.send("unknown repl op", {"op": "repl.bogus", "rid": 2})
    wire.send("handshake without replica", {"op": "repl.handshake", "rid": 3})
    wire.send("handshake", {"op": "repl.handshake", "replica": "r1",
                            "epoch": 1, "last_seq": 0, "rid": 4})
    wire.send("pull max_frames 0", {"op": "repl.pull", "from_seq": 0,
                                    "max_frames": 0, "rid": 5})
    wire.send("pull max_frames 5000", {"op": "repl.pull", "from_seq": 0,
                                       "max_frames": 5000, "rid": 6})
    wire.send("pull wait_ms negative", {"op": "repl.pull", "from_seq": 0,
                                        "wait_ms": -1, "rid": 7})
    wire.send("pull wait_ms 5000", {"op": "repl.pull", "from_seq": 0,
                                    "wait_ms": 5000, "rid": 8})
    wire.send("pull without from_seq", {"op": "repl.pull", "rid": 9})
    wire.send("pull", {"op": "repl.pull", "from_seq": 0, "max_frames": 2,
                       "applied": 0, "epoch": 1, "rid": 10})
    wire.send("pull caught up", {"op": "repl.pull", "from_seq": 3,
                                 "applied": 3, "rid": 11})
    wire.send("digest without range", {"op": "repl.digest", "rid": 12})
    wire.send("digest", {"op": "repl.digest", "from_seq": 0, "to_seq": 3,
                         "rid": 13})
    wire.send("fingerprints", {"op": "repl.fingerprints", "rid": 14})
    wire.send("snapshot", {"op": "repl.snapshot", "epoch": 0, "rid": 15})
    wire.send("epoch not an integer", {"op": "repl.pull", "from_seq": 0,
                                       "epoch": "x", "rid": 16})
    wire.send("higher peer epoch", {"op": "repl.pull", "from_seq": 0,
                                    "epoch": 99, "rid": 17})
    wire.send("higher peer epoch on handshake", {
        "op": "repl.handshake", "replica": "r1", "epoch": 99, "rid": 18})
    wire.send("no rid", {"op": "repl.digest", "from_seq": 0, "to_seq": 1})
    wire.send("client op on a link", {"op": "ask", "sql": "SELECT name FROM t",
                                      "rid": 19})
    wire.expect_closed()
    wire = dial("link2")
    wire.send("unknown repl op first", {"op": "repl.bogus", "rid": 1})
    wire.send("hello on a link", {"op": "hello", "user": "bob",
                                  "purpose": "ops", "rid": 2})
    wire.expect_closed()


def _first_frames(server: PCQEServer, dial: Dial) -> None:
    for step, message in [
        ("ask first", {"op": "ask", "sql": "SELECT name FROM t", "rid": 1}),
        ("bye first", {"op": "bye", "rid": 1}),
        ("no op", {"rid": 1}),
        ("op not a string", {"op": 5, "rid": 1}),
        ("hello without purpose", {"op": "hello", "user": "bob", "rid": 1}),
        ("hello unknown user", {"op": "hello", "user": "mallory",
                                "purpose": "ops", "rid": 1}),
        ("hello client_id int", {"op": "hello", "user": "bob",
                                 "purpose": "ops", "client_id": 7, "rid": 1}),
        ("hello no rid", {"op": "hello", "user": "mallory", "purpose": "ops"}),
    ]:
        wire = dial("fresh")
        wire.send(step, message)
        wire.expect_closed()
    for step, data in [
        ("not json", struct.pack(">I", 8) + b"not json"),
        ("not an object", struct.pack(">I", 5) + b"[1,2]"),
        ("oversize length", struct.pack(">I", 1 << 31)),
    ]:
        wire = dial("fresh")
        wire.send_bytes(step, data)
        wire.expect_closed()
    server._draining = True
    try:
        wire = dial("fresh")
        wire.send("hello while draining", {"op": "hello", "user": "bob",
                                           "purpose": "ops", "rid": 1})
        wire.expect_closed()
        wire = dial("link3")
        wire.send("handshake while draining", {
            "op": "repl.handshake", "replica": "r2", "rid": 1})
        wire.sock.close()
    finally:
        server._draining = False


def _draining_session(server: PCQEServer, dial: Dial) -> None:
    wire = dial("draining")
    wire.send("hello", {"op": "hello", "user": "bob", "purpose": "ops",
                        "client_id": "golden", "rid": 1})
    server._draining = True
    try:
        wire.send("sql while draining", {"op": "sql", "rid": 2,
                                         "sql": "SELECT name FROM t"})
        wire.send("metrics while draining", {"op": "metrics", "rid": 3})
        wire.send("replay while draining", {
            "op": "sql", "idempotency_key": "k1", "rid": 4,
            "sql": "INSERT INTO t VALUES ('a', 1) WITH CONFIDENCE 0.9"})
    finally:
        server._draining = False
    wire.send("bye", {"op": "bye"})
    wire.expect_closed()


#: One ask text no earlier step has sent: its first reply is planned, the
#: next two are served from the plan cache.
REPEATED_ASK = {"op": "ask", "sql": "SELECT name, qty FROM t WHERE qty > 0",
                "fraction": 0, "rid": 2}


def repeated_ask(server: PCQEServer, dial: Dial) -> None:
    """The same ask twice on one session and once on a second session."""
    for name, steps in (("repeat-a", ("ask", "ask again")),
                        ("repeat-b", ("ask on another session",))):
        wire = dial(name)
        wire.send("hello", {"op": "hello", "user": "bob", "purpose": "ops",
                            "rid": 1})
        for step in steps:
            wire.send(step, REPEATED_ASK)
        wire.send("bye", {"op": "bye", "rid": 3})
        wire.expect_closed()


def _after_restart(server: PCQEServer, dial: Dial) -> None:
    wire = dial("restarted")
    wire.send("hello", {"op": "hello", "user": "bob", "purpose": "ops",
                        "client_id": "golden", "rid": 1})
    wire.send("key replayed from the replicated map", {
        "op": "sql", "idempotency_key": "k1", "rid": 2,
        "sql": "INSERT INTO t VALUES ('a', 1) WITH CONFIDENCE 0.9"})
    wire.send("row landed once", {"op": "sql", "rid": 3,
                                  "sql": "SELECT * FROM t WHERE name = 'a'"})
    wire.send("bye", {"op": "bye", "rid": 4})
    wire.expect_closed()


@contextlib.contextmanager
def serving(
    db: Database, connect: Connect, transcript: list
) -> "Iterator[tuple[PCQEServer, Dial]]":
    """A server over *db* (listening only for :func:`tcp`) and the factory
    of named wires to it, all recording into *transcript*."""
    server = PCQEServer(db, policies(), port=0)
    try:
        if connect is tcp:
            server.start()
        yield server, lambda name: _Wire(connect, server, name, transcript)
    finally:
        server.stop()


def run_conversation(
    connect: Connect = tcp,
    after: "Callable[[PCQEServer], None]" = lambda server: None,
) -> "list[list[str]]":
    """Play the whole script; ``[step, reply JSON text]`` per frame read.
    *after* sees each server once its part of the script is over."""
    transcript: "list[list[str]]" = []
    with tempfile.TemporaryDirectory() as root:
        db = Database.open(root)
        try:
            with serving(db, connect, transcript) as (server, dial):
                _client_session(server, dial)
                _replication_link(server, dial)
                _first_frames(server, dial)
                _draining_session(server, dial)
                repeated_ask(server, dial)
                after(server)
        finally:
            db.close()
        db = Database.open(root)
        try:
            with serving(db, connect, transcript) as (server, dial):
                _after_restart(server, dial)
                after(server)
        finally:
            db.close()
    with serving(Database("mem"), connect, transcript) as (server, dial):
        wire = dial("in-memory")
        wire.send("handshake", {"op": "repl.handshake", "replica": "r1",
                                "rid": 1})
        wire.send("unknown repl op", {"op": "repl.bogus", "rid": 2})
        wire.sock.close()
        after(server)
    return transcript


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(run_conversation(), indent=1) + "\n")
    print(f"recorded {GOLDEN_PATH}")
