"""Every reply frame of the scripted conversation, byte for byte.

The fixture was recorded at the commit before the request path became one
staged pipeline over one op table (see :mod:`tests.golden_wire`);
equality here is ``==`` on the reply's JSON text, key order included.
"""

import json

from tests.golden_wire import GOLDEN_PATH, run_conversation


def test_wire_replies_are_byte_identical_to_the_fixture():
    golden = json.loads(GOLDEN_PATH.read_text())
    transcript = run_conversation()
    assert [step for step, _reply in transcript] == [
        step for step, _reply in golden
    ]
    for (step, reply), (_step, expected) in zip(transcript, golden):
        assert reply == expected, step
