"""Every reply frame of the scripted conversation, byte for byte.

The fixture was recorded at the commit before the request path became one
staged pipeline over one op table (see :mod:`tests.golden_wire`);
equality here is ``==`` on the reply's JSON text, key order included.
The conversation runs twice: over TCP, and over the loopback socket that
hands each frame to ``PCQEServer.handle`` on the test's own thread.
"""

import json

import pytest

import repro.sql
from repro.obs import MetricsRegistry, set_metrics
from repro.server import PCQEServer
from repro.storage.database import Database
from tests.golden_wire import (
    GOLDEN_PATH,
    repeated_ask,
    run_conversation,
    serving,
    tcp,
)
from tests.loopback import LoopbackSocket


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _assert_golden(transcript: list) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    assert [step for step, _reply in transcript] == [
        step for step, _reply in golden
    ]
    for (step, reply), (_step, expected) in zip(transcript, golden):
        assert reply == expected, step


def test_wire_replies_are_byte_identical_to_the_fixture():
    _assert_golden(run_conversation(tcp))


def test_loopback_replies_are_byte_identical_and_start_no_thread(
    no_new_threads,
):
    _assert_golden(run_conversation(LoopbackSocket))


@pytest.mark.parametrize(
    "connect", [tcp, LoopbackSocket], ids=["tcp", "loopback"]
)
def test_every_conversation_hangs_up_what_it_held(connect, fresh_metrics):
    """Sessions, their pins and breaker gauges are released by the one
    hang-up both transports call, before the server stops."""
    active = fresh_metrics.gauge("server.active_sessions")
    start = active.snapshot()
    checked = []

    def after(server: PCQEServer) -> None:
        assert active.snapshot() == start
        assert fresh_metrics.gauge("server.breaker.open").snapshot() == 0
        assert server.mvcc._pins == {}
        assert not server._sessions
        checked.append(server)

    run_conversation(connect, after)
    assert len(checked) == 3


def test_the_same_ask_three_times_is_three_equal_replies_and_one_plan(
    count_calls,
):
    """Twice on one session, once on a second: the text is parsed, planned
    and optimized once, and the replies do not differ by a byte."""
    db = Database("mem")
    repro.sql.execute_sql(db, "CREATE TABLE t (name TEXT, qty INT)")
    repro.sql.execute_sql(db, "INSERT INTO t VALUES ('a', 1), ('b', 2)")
    calls = [
        count_calls(repro.sql, name)
        for name in ("parse_command", "optimize")
    ]
    transcript: list = []
    with serving(db, tcp, transcript) as (server, dial):
        repeated_ask(server, dial)
    replies = [reply for step, reply in transcript if ": ask" in step]
    assert len(replies) == 3 and len(set(replies)) == 1
    assert '"rows":[["a",1],["b",2]]' in replies[0]
    assert calls == [[1], [1]]
