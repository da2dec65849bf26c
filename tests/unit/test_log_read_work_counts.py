"""A deterministic guard on how often a start reads and checksums its log.

Timings drift; counts repeat exactly.  Recovery reads ``wal.log`` once and
verifies each record once — a header checksum and a payload checksum — and
the replication feed of the server built over that database starts from the
records recovery hands it, each with the checksum already computed.  At the
commit before this guard the feed read and verified the file a second time
(2 opens, 4 checksums a record) and recomputed a CRC32C per retained frame
for every ``repl.digest``.
"""

import builtins
import sys

from repro.policy import PolicyStore
from repro.server import PCQEServer
from repro.storage import Database
from repro.storage.durability import WAL_FILE
from repro.storage.durability.checksum import crc32c
from repro.storage.schema import Schema
from repro.storage.types import TEXT

RECORDS = 40  # create_table + 39 inserts


def _count_checksums(run):
    """Calls of ``crc32c`` on this thread while *run* runs — counted from
    the interpreter's call events, so a reference bound at import or as a
    default argument counts like any other."""
    calls = [0]

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code is crc32c.__code__:
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls[0], result


def test_a_start_reads_the_log_once_and_checksums_each_record_once(
    tmp_path, monkeypatch
):
    data_dir = str(tmp_path / "primary")
    db = Database.open(data_dir, sync=False)
    table = db.create_table("t", Schema.of(("name", TEXT)))
    for index in range(RECORDS - 1):
        table.insert([f"row-{index}"], confidence=0.5)
    db.close()

    reads = []
    original_open = builtins.open

    def counted_open(path, mode="r", *args, **kwargs):
        if str(path).endswith(WAL_FILE) and "r" in mode:
            reads.append(mode)
        return original_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted_open)

    def start():
        opened = Database.open(data_dir, sync=False)
        return opened, PCQEServer(opened, PolicyStore(default_threshold=0.0))

    checksums, (db, server) = _count_checksums(start)
    try:
        assert reads == ["rb"]
        assert checksums == 2 * RECORDS  # header + payload, once each
        feed = server.replication.feed
        assert len(feed) == RECORDS and feed.last_seq == db._durability.last_seq

        # A digest of retained frames is a lookup: recovered frames carry
        # the reader's checksum, committed ones the appender's.
        table = db.table("t")
        appended, _ = _count_checksums(
            lambda: table.insert(["new"], confidence=0.5)
        )
        assert appended == 2  # framing the new record
        looked_up, digests = _count_checksums(
            lambda: feed.digests(0, RECORDS + 1)
        )
        assert looked_up == 0
        frames = feed.frames_since(0, max_frames=RECORDS + 1)
        assert digests == [(seq, crc32c(payload)) for seq, payload in frames]

        # A second server over the same open database has no hand-off
        # left: it reads the log again, through the same reader.
        again = PCQEServer(db, PolicyStore(default_threshold=0.0))
        try:
            assert reads == ["rb", "rb"]
            assert again.replication.feed.frames_since(0, RECORDS + 1) == frames
        finally:
            again.stop()
    finally:
        server.stop()
        db.close()
