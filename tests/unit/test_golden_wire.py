"""Every reply frame of the scripted conversation, byte for byte.

The fixture was recorded at the commit before the request path became one
staged pipeline over one op table (see :mod:`tests.golden_wire`);
equality here is ``==`` on the reply's JSON text, key order included.
"""

import json

import repro.sql
from repro.server import PCQEServer
from repro.storage.database import Database
from tests.golden_wire import (
    GOLDEN_PATH,
    policies,
    repeated_ask,
    run_conversation,
)


def test_wire_replies_are_byte_identical_to_the_fixture():
    golden = json.loads(GOLDEN_PATH.read_text())
    transcript = run_conversation()
    assert [step for step, _reply in transcript] == [
        step for step, _reply in golden
    ]
    for (step, reply), (_step, expected) in zip(transcript, golden):
        assert reply == expected, step


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
    with PCQEServer(db, policies(), port=0) as server:
        repeated_ask(server, transcript)
    replies = [reply for step, reply in transcript if ": ask" in step]
    assert len(replies) == 3 and len(set(replies)) == 1
    assert '"rows":[["a",1],["b",2]]' in replies[0]
    assert calls == [[1], [1]]
