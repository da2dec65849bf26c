"""Property tests for the durability formats.

Two round-trip laws and two corruption laws:

* any sequence of WAL payloads scans back bit-identical;
* any database state (arbitrary schemas, NULLs, booleans, confidences at
  the 0.0/1.0 boundaries, every cost-model family) survives snapshot
  save/load;
* truncating a WAL at any byte never raises — the scan yields a prefix
  of the records (the torn-tail contract);
* flipping any single bit of a complete WAL is always detected;
* whatever one truncation or bit flip does to ``wal.log`` or
  ``snapshot.snap``, ``fsck`` and ``recover`` give the same verdict on
  the same bytes — clean, torn at one offset, or corrupt for one reason —
  and neither raises anything but the two structured errors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    BinomialCost,
    ExponentialCost,
    FreeCost,
    LinearCost,
    LogarithmicCost,
    TabulatedCost,
)
from repro.errors import CorruptLogError, DurabilityError
from repro.storage import Database
from repro.storage.durability import (
    SNAPSHOT_FILE,
    WAL_FILE,
    WAL_MAGIC,
    WriteAheadLog,
    decode_cost_model,
    encode_cost_model,
    fsck_data_dir,
    load_snapshot,
    recover,
    scan_wal,
    write_snapshot,
)
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

# -- strategies ------------------------------------------------------------

_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=122),
    min_size=1,
    max_size=8,
)

_dtypes = st.sampled_from(list(DataType))


def _value_for(dtype: DataType, nullable: bool) -> st.SearchStrategy:
    if dtype is DataType.INTEGER:
        base = st.integers(min_value=-(2**40), max_value=2**40)
    elif dtype is DataType.REAL:
        base = st.floats(allow_nan=False, allow_infinity=False, width=32)
    elif dtype is DataType.BOOLEAN:
        base = st.booleans()
    else:
        base = st.text(max_size=12)
    return st.one_of(st.none(), base) if nullable else base


_confidences = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

_rates = st.floats(min_value=0.001, max_value=100.0, allow_nan=False)

_cost_models = st.one_of(
    st.just(None),
    st.builds(FreeCost),
    st.builds(LinearCost, _rates),
    st.builds(BinomialCost, _rates, _rates),
    st.builds(ExponentialCost, _rates, _rates),
    st.builds(
        LogarithmicCost,
        _rates,
        st.floats(min_value=0.05, max_value=0.95),
    ),
)


@st.composite
def _databases(draw) -> Database:
    db = Database("prop")
    table_names = draw(
        st.lists(_names, min_size=1, max_size=3, unique_by=str.lower)
    )
    for table_name in table_names:
        column_names = draw(
            st.lists(_names, min_size=1, max_size=4, unique_by=str.lower)
        )
        columns = [
            Column(
                column_name,
                draw(_dtypes),
                nullable=draw(st.booleans()),
            )
            for column_name in column_names
        ]
        table = db.create_table(table_name, Schema(columns))
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            values = [
                draw(_value_for(column.dtype, column.nullable))
                for column in columns
            ]
            model = draw(_cost_models)
            confidence = draw(_confidences)
            if model is not None:
                confidence = min(confidence, model.max_confidence)
            table.insert(values, confidence=confidence, cost_model=model)
    return db


def _state(db: Database):
    return {
        table.name: [
            (
                row.tid.ordinal,
                row.values,
                row.confidence,
                encode_cost_model(row.cost_model),
            )
            for row in table.scan()
        ]
        for table in db.tables()
    }


# -- WAL record round-trip -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(max_size=200), max_size=12))
def test_wal_payloads_roundtrip(tmp_path_factory, payloads):
    path = str(tmp_path_factory.mktemp("wal") / "wal.log")
    log = WriteAheadLog(path, sync=False)
    for payload in payloads:
        log.append(payload)
    log.close()
    scan = scan_wal(path)
    assert scan.payloads == payloads
    assert scan.torn_bytes == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=6),
    st.data(),
)
def test_wal_truncation_yields_record_prefix(tmp_path_factory, payloads, data):
    path = str(tmp_path_factory.mktemp("wal") / "wal.log")
    log = WriteAheadLog(path, sync=False)
    for payload in payloads:
        log.append(payload)
    log.close()
    raw = open(path, "rb").read()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
    with open(path, "wb") as handle:
        handle.write(raw[:cut])
    scan = scan_wal(path)  # must never raise: a prefix is a torn write
    assert scan.payloads == payloads[: len(scan.payloads)]
    assert scan.good_length <= cut


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=4),
    st.data(),
)
def test_wal_single_bitflip_always_detected(tmp_path_factory, payloads, data):
    path = str(tmp_path_factory.mktemp("wal") / "wal.log")
    log = WriteAheadLog(path, sync=False)
    for payload in payloads:
        log.append(payload)
    log.close()
    raw = bytearray(open(path, "rb").read())
    position = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    raw[position] ^= 1 << bit
    with open(path, "wb") as handle:
        handle.write(bytes(raw))
    if position < len(WAL_MAGIC):
        with pytest.raises(CorruptLogError):
            scan_wal(path)
        return
    # CRC32C detects every single-bit error in header and payload alike.
    with pytest.raises(CorruptLogError):
        scan_wal(path)


# -- fsck and recovery agree -----------------------------------------------


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> "dict[str, bytes]":
    """The two files of a data directory holding a snapshot at seq 4 and a
    four-record log suffix (one a keyed batch), byte for byte."""
    data_dir = tmp_path_factory.mktemp("pristine")
    db = Database.open(str(data_dir), sync=False)
    table = db.create_table("t", Schema([Column("name", DataType.TEXT)]))
    for index in range(3):
        table.insert([f"row-{index}"], confidence=0.5)
    db.checkpoint()
    for index in range(3, 6):
        table.insert([f"row-{index}"], confidence=0.5)
    with db.durability_batch():
        table.insert(["keyed"], confidence=0.5)
        db._journal({"op": "idempotency", "client": "c", "key": "k"})
    db.close()
    return {
        name: (data_dir / name).read_bytes() for name in (WAL_FILE, SNAPSHOT_FILE)
    }


def _verdicts(data_dir) -> None:
    """Assert fsck's report and recovery's outcome are one row of the table."""
    wal_path = data_dir / WAL_FILE
    before = {path.name: path.read_bytes() for path in data_dir.iterdir()}
    report = fsck_data_dir(str(data_dir))
    assert before == {
        path.name: path.read_bytes() for path in data_dir.iterdir()
    }, "fsck modified a file"
    try:
        _db, recovery = recover(str(data_dir))
    except DurabilityError as error:
        if error.code not in ("CorruptLogError", "CorruptSnapshotError"):
            raise
        # corrupt ⇔ the first fsck issue names the file recovery gave up
        # on, and its sentence — offset included — is recovery's reason.
        issue = report.issues[0]
        assert not issue.kind.startswith("wal-torn")
        assert issue.file == (
            SNAPSHOT_FILE if error.code == "CorruptSnapshotError" else WAL_FILE
        )
        assert issue.detail in str(error)
        return
    if recovery.torn_bytes_truncated:
        # torn ⇔ recovery cut the log at exactly the offset fsck named.
        (issue,) = report.issues
        assert issue.kind.startswith("wal-torn")
        assert issue.offset == len(wal_path.read_bytes())
        assert recovery.torn_bytes_truncated == (
            len(before[WAL_FILE]) - issue.offset
        )
    else:
        # clean ⇔ every record fsck verified was scanned, and every one
        # past the snapshot replayed.
        assert report.clean, report.format()
        assert wal_path.read_bytes() == before[WAL_FILE]
        assert recovery.records_scanned == report.frames_verified
        assert recovery.last_seq == report.last_seq
        assert recovery.records_replayed == (
            recovery.last_seq - report.snapshot_wal_seq
        )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fsck_and_recovery_agree_on_any_single_damage(
    tmp_path_factory, pristine, data
):
    data_dir = tmp_path_factory.mktemp("damaged")
    target = data.draw(st.sampled_from([WAL_FILE, SNAPSHOT_FILE]))
    raw = bytearray(pristine[target])
    if data.draw(st.booleans()):
        del raw[data.draw(st.integers(min_value=0, max_value=len(raw))) :]
    else:
        position = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw[position] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    for name, content in pristine.items():
        (data_dir / name).write_bytes(raw if name == target else content)
    _verdicts(data_dir)


@pytest.mark.parametrize(
    "payload",
    [
        b"[1]",  # JSON, not an object
        b"\xff\xfe",  # not UTF-8
        b'{"op":"insert"}',  # no seq
        b'{"seq":"1","op":"insert"}',  # seq not an integer
        b'{"seq":1,"op":"nope"}',  # unknown kind
        b'{"seq":1,"op":"batch","ops":[1]}',  # sub-op not an object
    ],
)
def test_a_checksummed_malformed_record_is_one_structured_outcome(
    tmp_path, payload
):
    log = WriteAheadLog(str(tmp_path / WAL_FILE), sync=False)
    log.append(payload)
    log.close()
    (issue,) = fsck_data_dir(str(tmp_path)).issues
    assert (issue.kind, issue.offset) == ("wal-bad-record", len(WAL_MAGIC))
    with pytest.raises(CorruptLogError) as excinfo:
        recover(str(tmp_path))
    assert issue.detail in str(excinfo.value)


# -- snapshot round-trip ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(db=_databases(), wal_seq=st.integers(min_value=0, max_value=2**31))
def test_snapshot_roundtrip(tmp_path_factory, db, wal_seq):
    path = str(tmp_path_factory.mktemp("snap") / "snapshot.snap")
    write_snapshot(db, path, wal_seq=wal_seq)
    restored, restored_seq = load_snapshot(path)
    assert restored_seq == wal_seq
    assert restored.name == db.name
    assert _state(restored) == _state(db)
    for table in db.tables():
        assert restored.table(table.name)._next_ordinal == table._next_ordinal


# -- cost-model codec ------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(model=_cost_models.filter(lambda m: m is not None))
def test_cost_model_codec_roundtrip(model):
    decoded = decode_cost_model(encode_cost_model(model))
    assert type(decoded) is type(model)
    assert decoded.max_confidence == model.max_confidence
    for target in (0.1, 0.5, 0.9):
        if target <= model.max_confidence:
            assert decoded.increment_cost(0.05, target) == model.increment_cost(
                0.05, target
            )


@settings(max_examples=40, deadline=None)
@given(
    confidences=st.lists(
        st.floats(min_value=0.01, max_value=0.99),
        min_size=2,
        max_size=5,
        unique=True,
    ),
    costs=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=5, max_size=5
    ),
)
def test_tabulated_cost_codec_roundtrip(confidences, costs):
    # Tabulated points need strictly increasing confidences and
    # non-decreasing costs; sort both to satisfy the invariant.
    points = list(zip(sorted(confidences), sorted(costs)))
    model = TabulatedCost(points)
    decoded = decode_cost_model(encode_cost_model(model))
    assert isinstance(decoded, TabulatedCost)
    assert sorted(decoded._points) == sorted(model._points)
