"""Offline integrity checking (``repro fsck``) and table fingerprints."""

from __future__ import annotations

import os

from repro.storage import Database
from repro.storage.durability import (
    database_fingerprints,
    fsck_data_dir,
    table_fingerprint,
)
from repro.storage.durability.recovery import SNAPSHOT_FILE, WAL_FILE
from repro.storage.schema import Schema
from repro.storage.types import REAL, TEXT


def _durable(tmp_path, name: str = "db") -> tuple[Database, str]:
    data_dir = str(tmp_path / name)
    db = Database.open(data_dir)
    table = db.create_table(
        "items", Schema.of(("name", TEXT), ("qty", REAL))
    )
    for index in range(4):
        table.insert([f"item-{index}", float(index)], confidence=0.5)
    return db, data_dir


class TestFsckCleanDirectories:
    def test_fresh_writes_verify_clean(self, tmp_path):
        db, data_dir = _durable(tmp_path)
        db.close()
        report = fsck_data_dir(data_dir)
        assert report.clean
        assert report.wal_present
        assert report.frames_verified == 5  # create_table + 4 inserts
        assert report.last_seq == 5
        assert "clean" in report.format()

    def test_checkpointed_state_verifies_clean(self, tmp_path):
        db, data_dir = _durable(tmp_path)
        db.checkpoint()
        db.close()
        report = fsck_data_dir(data_dir)
        assert report.clean
        assert report.snapshot_present
        assert report.snapshot_wal_seq == 5
        # Checkpoint rotated the WAL: the position comes from the
        # snapshot.
        assert report.frames_verified == 0
        assert report.last_seq == 5

    def test_empty_directory_is_clean(self, tmp_path):
        report = fsck_data_dir(str(tmp_path))
        assert report.clean
        assert not report.wal_present and not report.snapshot_present


class TestFsckWalDamage:
    def test_flipped_payload_byte_reports_offset_and_seq(self, tmp_path):
        db, data_dir = _durable(tmp_path)
        db.close()
        wal = os.path.join(data_dir, WAL_FILE)
        with open(wal, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"\xff")
        report = fsck_data_dir(data_dir)
        assert not report.clean
        (issue,) = report.issues
        assert issue.kind == "wal-payload-checksum"
        assert issue.seq == 4  # damage is inside frame 5
        assert issue.offset > 0
        assert str(issue.offset) in issue.format()
        # Intact prefix is still accounted for.
        assert report.frames_verified == 4
        assert report.last_seq == 4

    def test_torn_tail_reports_but_never_truncates(self, tmp_path):
        db, data_dir = _durable(tmp_path)
        db.close()
        wal = os.path.join(data_dir, WAL_FILE)
        size = os.path.getsize(wal)
        with open(wal, "r+b") as handle:
            handle.truncate(size - 10)
        report = fsck_data_dir(data_dir)
        assert not report.clean
        assert report.issues[0].kind in (
            "wal-torn-payload",
            "wal-torn-header",
        )
        # fsck is read-only: the file is exactly as damaged as before.
        assert os.path.getsize(wal) == size - 10

    def test_header_damage_stops_the_scan(self, tmp_path):
        db, data_dir = _durable(tmp_path)
        db.close()
        wal = os.path.join(data_dir, WAL_FILE)
        with open(wal, "r+b") as handle:
            handle.seek(8)  # first record's header (after the magic)
            handle.write(b"\xff\xff\xff\xff")
        report = fsck_data_dir(data_dir)
        assert not report.clean
        assert report.issues[0].kind == "wal-header-checksum"
        assert report.frames_verified == 0

    def test_bad_magic_is_not_a_wal(self, tmp_path):
        data_dir = str(tmp_path)
        with open(os.path.join(data_dir, WAL_FILE), "wb") as handle:
            handle.write(b"NOTAWAL1" + b"x" * 32)
        report = fsck_data_dir(data_dir)
        assert [i.kind for i in report.issues] == ["wal-bad-magic"]


class TestFsckSnapshotDamage:
    def test_flipped_snapshot_byte_is_a_checksum_issue(self, tmp_path):
        db, data_dir = _durable(tmp_path)
        db.checkpoint()
        db.close()
        snap = os.path.join(data_dir, SNAPSHOT_FILE)
        with open(snap, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")
        report = fsck_data_dir(data_dir)
        kinds = [issue.kind for issue in report.issues]
        assert "snapshot-checksum" in kinds or "snapshot-truncated" in kinds

    def test_truncated_snapshot_header(self, tmp_path):
        db, data_dir = _durable(tmp_path)
        db.checkpoint()
        db.close()
        snap = os.path.join(data_dir, SNAPSHOT_FILE)
        with open(snap, "r+b") as handle:
            handle.truncate(4)
        report = fsck_data_dir(data_dir)
        assert report.issues[0].kind == "snapshot-bad-header"


class TestTableFingerprints:
    def test_equal_content_equal_fingerprint(self):
        def build() -> Database:
            db = Database("a")
            table = db.create_table(
                "t", Schema.of(("name", TEXT), ("qty", REAL))
            )
            table.insert(["x", 1.0], confidence=0.5)
            table.insert(["y", 2.0], confidence=0.7)
            return db

        one, two = build(), build()
        assert table_fingerprint(one.table("t")) == table_fingerprint(
            two.table("t")
        )
        assert database_fingerprints(one) == database_fingerprints(two)

    def test_value_confidence_and_schema_changes_all_show(self):
        db = Database("a")
        table = db.create_table("t", Schema.of(("name", TEXT)))
        tid = table.insert(["x"], confidence=0.5)
        base = table_fingerprint(table)
        table.set_confidence(tid, 0.6)
        changed = table_fingerprint(table)
        assert changed != base
        table.set_confidence(tid, 0.5)
        assert table_fingerprint(table) == base
        table.insert(["y"], confidence=0.5)
        assert table_fingerprint(table) != base

    def test_snapshot_tables_fingerprint_like_live_tables(self):
        from repro.server.mvcc import MVCCDatabase

        db = Database("a")
        table = db.create_table("t", Schema.of(("name", TEXT)))
        table.insert(["x"], confidence=0.5)
        live = table_fingerprint(table)
        snapshot = MVCCDatabase(db).snapshot()
        try:
            assert table_fingerprint(snapshot.db.table("t")) == live
        finally:
            snapshot.release()
