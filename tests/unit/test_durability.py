"""Unit tests for the durability layer: checksums, atomic writes, retry,
the WAL file format, snapshots, and the manager's journaling."""

from __future__ import annotations

import json
import os

import pytest

from repro.cost import FreeCost, LinearCost, TabulatedCost
from repro.errors import CorruptLogError, DurabilityError
from repro.storage import Database
from repro.storage.durability import (
    RetryPolicy,
    WAL_MAGIC,
    WriteAheadLog,
    atomic_text_writer,
    atomic_write_bytes,
    atomic_write_text,
    crc32c,
    database_fingerprints,
    database_from_payload,
    decode_cost_model,
    decode_op,
    encode_cost_model,
    encode_op,
    fsck_data_dir,
    load_snapshot,
    recover,
    scan_wal,
    snapshot_payload,
    write_snapshot,
)
from repro.storage.durability.wal import truncate_torn_tail
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType
from tests.error_codes import raises_code


def _schema(*names: str) -> Schema:
    return Schema([Column(name, DataType.INTEGER) for name in names])


# -- crc32c ----------------------------------------------------------------


def test_crc32c_known_vectors():
    # The canonical CRC-32C (Castagnoli) check value.
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"") == 0
    # 32 zero bytes, per RFC 3720 appendix B.4.
    assert crc32c(bytes(32)) == 0x8A9136AA


def test_crc32c_is_incremental():
    whole = crc32c(b"hello world")
    assert crc32c(b" world", crc32c(b"hello")) == whole


# -- atomic writes ---------------------------------------------------------


def test_atomic_write_bytes_replaces_and_survives(tmp_path):
    target = tmp_path / "data.bin"
    atomic_write_bytes(target, b"one")
    atomic_write_bytes(target, b"two")
    assert target.read_bytes() == b"two"
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files


def test_atomic_write_text(tmp_path):
    target = tmp_path / "data.txt"
    atomic_write_text(target, "héllo")
    assert target.read_text(encoding="utf-8") == "héllo"


def test_atomic_text_writer_discards_on_error(tmp_path):
    target = tmp_path / "data.txt"
    target.write_text("previous")
    with pytest.raises(RuntimeError):
        with atomic_text_writer(target) as handle:
            handle.write("partial")
            raise RuntimeError("boom")
    assert target.read_text() == "previous"
    assert list(tmp_path.iterdir()) == [target]


# -- retry policy ----------------------------------------------------------


def test_retry_policy_retries_transient_oserror():
    sleeps: list[float] = []
    attempts = {"n": 0}

    def flaky() -> str:
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise OSError("transient")
        return "ok"

    policy = RetryPolicy(
        attempts=3, base_delay=0.01, jitter=0.0, sleep=sleeps.append
    )
    assert policy.call(flaky) == "ok"
    assert attempts["n"] == 3
    assert sleeps == [0.01, 0.02]  # capped exponential backoff


def test_retry_policy_reraises_after_last_attempt():
    policy = RetryPolicy(attempts=2, base_delay=0.0, sleep=lambda _s: None)
    with pytest.raises(OSError):
        policy.call(lambda: (_ for _ in ()).throw(OSError("persistent")))


def test_retry_policy_does_not_catch_other_errors():
    policy = RetryPolicy(attempts=3, base_delay=0.0, sleep=lambda _s: None)
    calls = {"n": 0}

    def bad() -> None:
        calls["n"] += 1
        raise ValueError("not io")

    with pytest.raises(ValueError):
        policy.call(bad)
    assert calls["n"] == 1


def test_retry_policy_jitter_is_seeded():
    def delays(seed: int) -> list[float]:
        sleeps: list[float] = []
        state = {"n": 0}

        def flaky() -> None:
            state["n"] += 1
            if state["n"] < 4:
                raise OSError("x")

        RetryPolicy(
            attempts=4, base_delay=0.01, jitter=0.5, seed=seed,
            sleep=sleeps.append,
        ).call(flaky)
        return sleeps

    assert delays(7) == delays(7)
    assert delays(7) != delays(8)


# -- WAL -------------------------------------------------------------------


def test_wal_append_and_scan_roundtrip(tmp_path):
    path = str(tmp_path / "wal.log")
    log = WriteAheadLog(path)
    payloads = [b"alpha", b"", b"x" * 1000]
    for payload in payloads:
        log.append(payload)
    log.close()
    assert scan_wal(path).payloads == payloads


def test_wal_scan_truncates_torn_tail_only(tmp_path):
    path = str(tmp_path / "wal.log")
    log = WriteAheadLog(path)
    log.append(b"first")
    log.append(b"second")
    log.close()
    # Tear the last record: drop its final 3 bytes.
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 3)
    scan = scan_wal(path)
    assert scan.payloads == [b"first"]
    assert scan.torn_bytes > 0
    removed = truncate_torn_tail(path, scan)
    assert removed == scan.torn_bytes
    # Idempotent: a rescan finds an intact log.
    rescan = scan_wal(path)
    assert rescan.payloads == [b"first"]
    assert rescan.torn_bytes == 0


def test_wal_scan_raises_on_mid_log_corruption(tmp_path):
    path = str(tmp_path / "wal.log")
    log = WriteAheadLog(path)
    log.append(b"first-record-payload")
    log.append(b"second")
    log.close()
    data = bytearray(open(path, "rb").read())
    # Flip one bit inside the *first* record's payload: a complete record
    # with a bad checksum is corruption, never a torn write.
    data[len(WAL_MAGIC) + 12 + 2] ^= 0x04
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(CorruptLogError):
        scan_wal(path)


def test_wal_scan_rejects_foreign_file(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"NOTAWAL0" + b"junk")
    with pytest.raises(CorruptLogError):
        scan_wal(str(path))


def test_wal_scan_accepts_torn_magic(tmp_path):
    # A crash during the very first header write leaves a magic prefix.
    path = tmp_path / "wal.log"
    path.write_bytes(WAL_MAGIC[:3])
    scan = scan_wal(str(path))
    assert scan.payloads == []
    assert scan.torn_bytes == 3


def test_wal_rotate_resets_log(tmp_path):
    path = str(tmp_path / "wal.log")
    log = WriteAheadLog(path)
    log.append(b"old")
    log.rotate()
    log.append(b"new")
    log.close()
    assert scan_wal(path).payloads == [b"new"]


def test_wal_append_retries_without_duplicating_records(tmp_path):
    path = str(tmp_path / "wal.log")
    log = WriteAheadLog(
        path,
        retry=RetryPolicy(attempts=3, base_delay=0.0, sleep=lambda _s: None),
    )
    real_write = log._file.write
    state = {"failed": False}

    def flaky_write(data: bytes) -> None:
        if not state["failed"] and data != WAL_MAGIC:
            state["failed"] = True
            real_write(data[:5])  # a partial first attempt lands
            raise OSError("transient")
        real_write(data)

    log._file.write = flaky_write  # type: ignore[method-assign]
    log.append(b"payload-after-retry")
    log.close()
    assert scan_wal(path).payloads == [b"payload-after-retry"]


# -- cost-model / op codec -------------------------------------------------


def test_cost_model_codec_roundtrip_all_families():
    models = [
        FreeCost(),
        FreeCost(max_confidence=0.8),
        LinearCost(2.5),
        LinearCost(1.0, max_confidence=0.9),
        TabulatedCost([(0.1, 1.0), (0.5, 3.0)], max_confidence=0.5),
    ]
    for model in models:
        decoded = decode_cost_model(encode_cost_model(model))
        assert type(decoded) is type(model)
        assert decoded.max_confidence == model.max_confidence
    assert encode_cost_model(FreeCost()) is None  # the compact default


def test_cost_model_codec_rejects_unknown():
    class Custom(FreeCost):
        pass

    with pytest.raises(DurabilityError):
        encode_cost_model(Custom())
    with pytest.raises(DurabilityError):
        decode_cost_model({"kind": "mystery"})


def test_op_codec_validates_kind():
    with pytest.raises(DurabilityError):
        encode_op({"op": "nonsense"})
    with pytest.raises(DurabilityError):
        decode_op({"op": "nonsense"})
    with pytest.raises(DurabilityError):
        decode_op({"op": "batch", "ops": "not-a-list"})


def test_op_codec_makes_ops_jsonable():
    encoded = encode_op(
        {
            "op": "insert",
            "table": "t",
            "ordinal": 0,
            "values": (1, "x", None),
            "confidence": 0.5,
            "cost_model": LinearCost(2.0),
        }
    )
    json.dumps(encoded)  # must not raise
    assert encoded["values"] == [1, "x", None]
    assert encoded["cost_model"]["kind"] == "linear"


# -- snapshots -------------------------------------------------------------


def _sample_db() -> Database:
    db = Database("snaptest")
    table = db.create_table(
        "t",
        Schema(
            [
                Column("a", DataType.INTEGER),
                Column("b", DataType.TEXT, nullable=True),
            ]
        ),
    )
    table.insert([1, "x"], confidence=0.25, cost_model=LinearCost(3.0))
    table.insert([2, None], confidence=1.0)
    tid = table.insert([3, "z"])
    table.delete(tid)  # leaves an ordinal gap the snapshot must keep
    db.create_view("v", "SELECT a FROM t")
    return db


def test_snapshot_roundtrip_preserves_everything(tmp_path):
    db = _sample_db()
    path = str(tmp_path / "snapshot.snap")
    write_snapshot(db, path, wal_seq=42)
    restored, wal_seq = load_snapshot(path)
    assert wal_seq == 42
    table = restored.table("t")
    assert table.rows() == [(1, "x"), (2, None)]
    assert table.get(next(iter(table.scan())).tid).confidence == 0.25
    assert table._next_ordinal == 3  # the deleted ordinal is not reused
    assert restored.view_definition("v") == "SELECT a FROM t"
    model = next(iter(table.scan())).cost_model
    assert isinstance(model, LinearCost) and model.rate == 3.0


def test_snapshot_payload_declaring_indexes_still_loads():
    # Snapshots written before hash indexes were removed list them per
    # table; the key is ignored and the state is the same without it.
    db = _sample_db()
    payload = snapshot_payload(db, wal_seq=7)
    assert "indexes" not in payload["tables"][0]
    legacy = json.loads(json.dumps(payload))
    legacy["tables"][0]["indexes"] = ["a"]
    restored, wal_seq = database_from_payload(legacy)
    assert wal_seq == 7
    assert database_fingerprints(restored) == database_fingerprints(db)
    assert [r.values for r in restored.table("t").lookup("a", 2)] == [(2, None)]


def test_snapshot_detects_bitflip(tmp_path):
    db = _sample_db()
    path = str(tmp_path / "snapshot.snap")
    write_snapshot(db, path, wal_seq=1)
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0x10
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with raises_code(DurabilityError, "CorruptSnapshotError"):
        load_snapshot(path)


def test_snapshot_detects_truncation(tmp_path):
    db = _sample_db()
    path = str(tmp_path / "snapshot.snap")
    write_snapshot(db, path, wal_seq=1)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 10)
    with raises_code(DurabilityError, "CorruptSnapshotError"):
        load_snapshot(path)


def test_snapshot_rejects_empty_file(tmp_path):
    # The state a lost-fsync + rename leaves behind.
    path = tmp_path / "snapshot.snap"
    path.write_bytes(b"")
    with raises_code(DurabilityError, "CorruptSnapshotError"):
        load_snapshot(str(path))


# -- Database.open / manager ----------------------------------------------


def test_database_open_journal_and_reopen(tmp_path):
    data_dir = str(tmp_path / "state")
    db = Database.open(data_dir)
    assert db.is_durable
    table = db.create_table("t", _schema("a"))
    table.insert([1], confidence=0.5)
    table.insert([2])
    db.close()
    assert not db.is_durable  # close detaches the manager

    db2 = Database.open(data_dir)
    assert db2.table("t").rows() == [(1,), (2,)]
    assert next(iter(db2.table("t").scan())).confidence == 0.5
    db2.close()


def test_database_checkpoint_compacts_wal(tmp_path):
    data_dir = str(tmp_path / "state")
    db = Database.open(data_dir)
    table = db.create_table("t", _schema("a"))
    for value in range(20):
        table.insert([value])
    before = db._durability.wal_size_bytes
    db.checkpoint()
    after = db._durability.wal_size_bytes
    assert after == len(WAL_MAGIC) < before
    table.insert([99])
    db.close()

    db2, report = recover(data_dir)
    assert report.snapshot_loaded
    assert report.records_replayed == 1  # only the post-checkpoint insert
    assert len(db2.table("t")) == 21


def test_database_open_batches_are_single_records(tmp_path):
    data_dir = str(tmp_path / "state")
    db = Database.open(data_dir)
    table = db.create_table("t", _schema("a"))
    with db.durability_batch():
        table.insert([1])
        table.insert([2])
        table.insert([3])
    db.close()
    payloads = scan_wal(os.path.join(data_dir, "wal.log")).payloads
    records = [json.loads(p) for p in payloads]
    kinds = [record["op"] for record in records]
    assert kinds == ["create_table", "batch"]
    assert [sub["op"] for sub in records[1]["ops"]] == ["insert"] * 3


def test_apply_confidences_is_one_record(tmp_path):
    data_dir = str(tmp_path / "state")
    db = Database.open(data_dir)
    table = db.create_table("t", _schema("a"))
    tids = [table.insert([value], confidence=0.1) for value in range(3)]
    db.apply_confidences({tid: 0.9 for tid in tids})
    db.close()
    payloads = scan_wal(os.path.join(data_dir, "wal.log")).payloads
    records = [json.loads(p) for p in payloads]
    confidence_records = [r for r in records if r["op"] == "update_rows"]
    assert len(confidence_records) == 1
    assert confidence_records[0]["ordinals"] == [0, 1, 2]
    assert confidence_records[0]["confidence"] == [0.9, 0.9, 0.9]
    assert confidence_records[0]["columns"] == confidence_records[0]["values"] == []

    db2, _report = recover(data_dir)
    assert all(row.confidence == 0.9 for row in db2.table("t").scan())


def test_recover_rejects_unknown_table_reference(tmp_path):
    data_dir = str(tmp_path / "state")
    db = Database.open(data_dir)
    db.create_table("t", _schema("a")).insert([1])
    db.close()
    # Forge a record against a table the log never created.
    log = WriteAheadLog(os.path.join(data_dir, "wal.log"))
    log.append(
        json.dumps(
            {"op": "delete", "table": "ghost", "ordinal": 0, "seq": 99}
        ).encode()
    )
    log.close()
    with pytest.raises(CorruptLogError):
        recover(data_dir)


def test_recover_replays_a_legacy_create_index_record_as_no_change(tmp_path):
    data_dir = str(tmp_path / "state")
    db = Database.open(data_dir)
    db.create_table("t", _schema("a")).insert([1])
    before = database_fingerprints(db)
    db.close()
    # What Table.create_index journaled before hash indexes were removed.
    log = WriteAheadLog(os.path.join(data_dir, "wal.log"))
    log.append(
        json.dumps(
            {"op": "create_index", "table": "t", "column": "a", "seq": 3}
        ).encode()
    )
    log.close()
    recovered, report = recover(data_dir)
    assert report.records_replayed == 3 and report.last_seq == 3
    assert database_fingerprints(recovered) == before
    assert recovered.table("t").rows() == [(1,)]
    assert fsck_data_dir(data_dir).clean


def test_recover_empty_directory_is_first_boot(tmp_path):
    db, report = recover(str(tmp_path / "fresh"))
    assert list(db.tables()) == []
    assert not report.snapshot_loaded
    assert report.records_replayed == 0
    assert "snapshot: none" in report.format()


def test_in_memory_database_durability_is_noop():
    db = Database("mem")
    assert not db.is_durable
    assert db.checkpoint() == 0
    db.close()
    with db.durability_batch():
        db.create_table("t", _schema("a")).insert([1])
    assert db.table("t").rows() == [(1,)]


def test_clone_of_durable_database_is_not_journaled(tmp_path):
    data_dir = str(tmp_path / "state")
    db = Database.open(data_dir)
    db.create_table("t", _schema("a")).insert([1])
    clone = db.clone()
    clone.table("t").insert([2])  # must not reach the WAL
    db.close()
    db2, _report = recover(data_dir)
    assert db2.table("t").rows() == [(1,)]


# -- WAL concurrency -------------------------------------------------------


def test_concurrent_appends_do_not_interleave_frames(tmp_path):
    import threading

    path = str(tmp_path / "wal.log")
    log = WriteAheadLog(path, sync=False)
    threads, per_thread = 8, 50
    barrier = threading.Barrier(threads)
    errors: list[BaseException] = []

    def appender(worker: int) -> None:
        barrier.wait()
        try:
            for i in range(per_thread):
                log.append(f"w{worker}:{i}".encode() * 20)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    workers = [
        threading.Thread(target=appender, args=(w,)) for w in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    log.close()
    assert not errors
    scan = scan_wal(path)  # raises CorruptLogError on interleaved frames
    assert scan.torn_bytes == 0
    expected = {
        f"w{w}:{i}".encode() * 20 for w in range(threads) for i in range(per_thread)
    }
    assert set(scan.payloads) == expected
    assert len(scan.payloads) == threads * per_thread


def test_reentrant_append_raises_instead_of_deadlocking(tmp_path):
    path = str(tmp_path / "wal.log")
    log = WriteAheadLog(path, sync=False)
    log.append(b"warmup")
    failures: list[DurabilityError] = []

    class _JournalingFile:
        """Wraps the WAL's file; its write() journals — the forbidden cycle."""

        def __init__(self, inner):
            self._inner = inner
            self.armed = False

        def write(self, data):
            if self.armed:
                self.armed = False
                with pytest.raises(DurabilityError) as info:
                    log.append(b"from-inside-a-write")
                failures.append(info.value)
            return self._inner.write(data)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    hooked = _JournalingFile(log._file)
    log._file = hooked
    hooked.armed = True
    log.append(b"outer")
    assert len(failures) == 1
    assert "re-entrant" in str(failures[0])
    log.close()
    scan = scan_wal(path)
    assert scan.payloads == [b"warmup", b"outer"]
