"""Writes the legacy-log fixture in this directory.

Run it from a checkout of commit 35e8deb (PR 17), the last tree whose
multi-row writers journal per-row ``update`` / ``set_confidence``
sub-ops and triple-shaped ``confidences`` records::

    PYTHONPATH=src python tests/fixtures/legacy_wal/generate.py OUT_DIR

Run on a later tree it would write that tree's records instead, so the
committed ``wal.log`` / ``snapshot.snap`` / ``expected.json`` are not
regenerated: they are what an existing deployment has on disk, and
``tests/unit/test_legacy_wal_fixture.py`` proves they still recover.
"""

from __future__ import annotations

import json
import os
import sys

from repro.cost import LinearCost
from repro.sql import execute_dml, parse_command
from repro.storage import REAL, TEXT, Column, Database, Schema, TupleId
from repro.storage.durability import database_fingerprints


def main(out_dir: str) -> None:
    db = Database.open(out_dir, name="legacy")
    patients = db.create_table(
        "Patients",
        Schema(
            [
                Column("PatientId", TEXT, nullable=False),
                Column("Stage", TEXT),
                Column("Score", REAL),
            ]
        ),
    )
    patients.create_index("Stage")
    treatments = db.create_table(
        "Treatments",
        Schema([Column("PatientId", TEXT, nullable=False), Column("Rate", REAL)]),
    )
    for i in range(8):
        patients.insert(
            [f"P-{i:03d}", "I" if i % 2 else "II", float(i)],
            confidence=0.4,
            cost_model=LinearCost(10.0),
        )
        treatments.insert(
            [f"P-{i:03d}", i / 10.0], confidence=0.5, cost_model=LinearCost(5.0)
        )
    db.checkpoint()  # everything above lives in snapshot.snap

    # The WAL suffix: every legacy multi-row shape, plus single-row ops.
    with db.durability_batch():  # what MVCC commit + Session.run_sql do
        execute_dml(
            db,
            parse_command(
                "UPDATE Patients SET Stage = 'III', Score = Score + 1 "
                "WHERE Score >= 2 AND Score < 6 WITH CONFIDENCE 0.3"
            ),
        )
        db._journal({"op": "idempotency", "client": "c-1", "key": "c-1:7"})
    execute_dml(
        db, parse_command("UPDATE Treatments SET Rate = 0.5 WHERE Rate > 0.55")
    )
    db.apply_confidences(  # an approved strategy's write-back, two tables
        {
            TupleId("Patients", 0): 0.9,
            TupleId("Patients", 3): 0.85,
            TupleId("Treatments", 1): 0.95,
        }
    )
    treatments.assign_confidences(
        lambda row: min(1.0, round(row.confidence + 0.01 * row.tid.ordinal, 6))
    )
    patients.update(TupleId("Patients", 7), ["P-007", None, 70.0])
    patients.set_confidence(TupleId("Patients", 7), 0.77)
    patients.delete(TupleId("Patients", 6))
    patients.insert(["P-100", "IV", 1.5], confidence=0.6)
    expected = {
        "last_seq": db._durability.last_seq,
        "fingerprints": database_fingerprints(db),
        "idempotency_keys": [["c-1", "c-1:7"]],
    }
    db.close()
    with open(os.path.join(out_dir, "expected.json"), "w", encoding="utf-8") as out:
        json.dump(expected, out, indent=2, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
