"""A log written before ``update_rows`` existed still recovers.

``tests/fixtures/legacy_wal/`` is a data directory written by commit
35e8deb (see ``generate.py`` there): a snapshot plus a WAL suffix whose
multi-row writes are per-row ``update`` / ``set_confidence`` sub-ops and
triple-shaped ``confidences`` records — the shapes nothing writes any
more.  It must recover to the fingerprints recorded beside it, pass
``fsck``, and keep accepting writes in the current format.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.storage import Database, TupleId
from repro.storage.durability import (
    database_fingerprints,
    fsck_data_dir,
    iter_idempotency_markers,
    recover,
    scan_wal,
)

FIXTURE = Path(__file__).parent.parent / "fixtures" / "legacy_wal"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text(encoding="utf-8"))


@pytest.fixture
def data_dir(tmp_path) -> str:
    """A scratch copy: recovery and ``Database.open`` write to the dir."""
    target = tmp_path / "legacy"
    target.mkdir()
    for name in ("wal.log", "snapshot.snap"):
        shutil.copy(FIXTURE / name, target / name)
    return str(target)


def _records(data_dir: str) -> list[dict]:
    return [json.loads(p) for p in scan_wal(f"{data_dir}/wal.log").payloads]


def _kinds(record: dict) -> list[str]:
    if record["op"] == "batch":
        return [kind for sub in record["ops"] for kind in _kinds(sub)]
    return [record["op"]]


def test_fixture_holds_the_legacy_shapes_and_no_new_one(data_dir):
    kinds = [kind for record in _records(data_dir) for kind in _kinds(record)]
    assert kinds.count("confidences") == 2  # write-back, assign_confidences
    assert kinds.count("update") == 4 + 2 + 1  # two statements, one API call
    assert kinds.count("set_confidence") == 4 + 1
    assert "idempotency" in kinds
    assert "update_rows" not in kinds


def test_fixture_passes_fsck(data_dir):
    report = fsck_data_dir(data_dir)
    assert report.clean, report.format()
    assert report.last_seq == EXPECTED["last_seq"]


def test_fixture_recovers_to_its_recorded_fingerprints(data_dir):
    db, report = recover(data_dir)
    assert report.snapshot_loaded and report.records_replayed == 8
    assert report.last_seq == EXPECTED["last_seq"]
    assert database_fingerprints(db) == EXPECTED["fingerprints"]
    # The snapshot declares a hash index on Stage (ignored now); lookup
    # answers in scan order, unsorted, after the legacy per-row updates.
    patients = db.table("Patients")
    assert [row.values[0] for row in patients.lookup("Stage", "III")] == [
        row.values[0] for row in patients.scan() if row.values[1] == "III"
    ] == ["P-002", "P-003", "P-004", "P-005"]
    markers = [
        list(marker)
        for record in _records(data_dir)
        for marker in iter_idempotency_markers(record)
    ]
    assert markers == EXPECTED["idempotency_keys"]


def test_new_records_append_to_a_legacy_log(data_dir):
    db = Database.open(data_dir)
    db.table("Treatments").update_rows([0, 1], [1], [[0.11, 0.22]], 0.5)
    db.apply_confidences({TupleId("Patients", 1): 0.7})
    live = database_fingerprints(db)
    assert live != EXPECTED["fingerprints"]
    db.close()
    kinds = [kind for record in _records(data_dir) for kind in _kinds(record)]
    assert kinds[-2:] == ["update_rows", "update_rows"]
    assert fsck_data_dir(data_dir).clean
    recovered, _report = recover(data_dir)
    assert database_fingerprints(recovered) == live
