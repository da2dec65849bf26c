"""Crash recovery: newest valid snapshot + WAL replay.

``recover(data_dir)`` rebuilds the database a crashed process left
behind:

1. stale temp files from interrupted atomic writes are removed (they
   were never renamed into place, so they carry no committed state);
2. the snapshot, if present, is loaded and verified (checksum failures
   raise ``CorruptSnapshotError`` — after WAL
   compaction there is no older state to fall back to, so silence would
   be data loss);
3. the WAL is scanned; a torn tail is physically truncated (and
   fsync'd, so recovery is idempotent); checksum corruption *before*
   the tail raises :class:`~repro.errors.CorruptLogError`;
4. every record with ``seq`` greater than the snapshot's ``wal_seq`` is
   decoded and replayed, in order.

The resulting state is exactly "snapshot ∘ committed WAL suffix" — for
any single interrupted operation, either the pre-op or the post-op
state, never a third.

:func:`apply_op` is the one replay function: ``recover`` calls it per
record, and a replica calls it per shipped frame.  It replays through
the storage layer's own row-set mutators — an ``update_rows`` record is
one :meth:`~repro.storage.table.Table.update_rows` call, the call the
primary's commit made, a ``delete`` op one ``delete_rows`` — and it still
understands the kinds older logs hold (per-row ``update`` /
``set_confidence``, triple-shaped ``confidences``: each an
``update_rows`` of one row); there is no second decoder.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ...errors import CorruptLogError, DurabilityError, ReproError
from ...obs import get_metrics, get_tracer
from .codec import (
    decode_cost_model,
    decode_record,
    decode_schema,
    iter_idempotency_markers,
)
from .wal import scan_wal, truncate_torn_tail

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..database import Database

__all__ = ["RecoveryReport", "recover", "apply_op", "SNAPSHOT_FILE", "WAL_FILE"]

SNAPSHOT_FILE = "snapshot.snap"
WAL_FILE = "wal.log"

#: How much of the log's tail recovery keeps in memory for a replication
#: feed to start from: the feed's own window, in frames and payload bytes.
TAIL_FRAMES = 4096
TAIL_BYTES = 4 * 1024 * 1024


@dataclass
class RecoveryReport:
    """What recovery found and did (surfaced by ``repro recover``)."""

    data_dir: str
    snapshot_loaded: bool = False
    snapshot_bytes: int = 0
    records_scanned: int = 0
    records_replayed: int = 0
    bytes_replayed: int = 0
    torn_bytes_truncated: int = 0
    last_seq: int = 0
    #: The log's last records as ``(seq, payload, payload checksum)``,
    #: bounded by ``TAIL_FRAMES`` / ``TAIL_BYTES`` — read and verified once,
    #: here, so a replication feed over this log need not read it again.
    tail: "list[tuple[int, bytes, int]]" = field(default_factory=list, repr=False)

    def format(self) -> str:
        snapshot = (
            f"loaded ({self.snapshot_bytes} bytes)"
            if self.snapshot_loaded
            else "none"
        )
        return "\n".join(
            [
                f"recovered from {self.data_dir}",
                f"  snapshot: {snapshot}",
                f"  wal records scanned: {self.records_scanned}",
                f"  wal records replayed: {self.records_replayed} "
                f"({self.bytes_replayed} bytes)",
                f"  torn tail truncated: {self.torn_bytes_truncated} bytes",
                f"  last sequence number: {self.last_seq}",
            ]
        )


def apply_op(db: "Database", op: dict[str, Any], seq: int = 0) -> None:
    """Replay one decoded logical operation against *db*.

    *seq* is the sequence number of the record *op* came in: what an
    ``idempotency`` marker inside it maps its ⟨client, key⟩ to.
    Inconsistencies (a record referencing a table the state does not
    have) mean the log and snapshot disagree — that is corruption, and
    it surfaces as :class:`CorruptLogError`.
    """
    from ..tuples import StoredTuple, TupleId

    kind = op["op"]
    try:
        if kind == "batch":
            for sub in op["ops"]:
                apply_op(db, sub, seq)
        elif kind == "create_table":
            db.create_table(op["table"], decode_schema(op["columns"]))
        elif kind == "drop_table":
            db.drop_table(op["table"])
        elif kind == "create_view":
            db.create_view(op["name"], op["sql"])
        elif kind == "drop_view":
            db.drop_view(op["name"])
        elif kind == "create_index":
            # Legacy: tables keep no hash indexes (no query ever read
            # one), so a log that declares one replays it as no change.
            pass
        elif kind == "insert":
            db.table(op["table"])._force_insert(
                StoredTuple(
                    tid=TupleId(op["table"], op["ordinal"]),
                    values=tuple(op["values"]),
                    confidence=op["confidence"],
                    cost_model=decode_cost_model(op.get("cost_model")),
                )
            )
        elif kind == "delete":
            db.table(op["table"]).delete_rows([op["ordinal"]])
        elif kind == "update_rows":
            # The method the primary's commit ran: one call, one version
            # bump, and it journals nothing here (recovery has no manager
            # attached yet; a replica applies under suspended()).
            db.table(op["table"]).update_rows(
                op["ordinals"], op["columns"], op["values"], op["confidence"]
            )
        # Read-only legacy kinds, replayed as the row sets of one they are.
        elif kind == "update":
            table = db.table(op["table"])
            table.update_rows(
                [op["ordinal"]],
                range(len(table.schema)),
                [[value] for value in op["values"]],
            )
        elif kind == "set_confidence":
            db.table(op["table"]).update_rows(
                [op["ordinal"]], confidence=op["confidence"]
            )
        elif kind == "confidences":
            for table, ordinal, value in op["updates"]:
                db.table(table).update_rows([ordinal], confidence=value)
        elif kind == "idempotency":
            # The exactly-once map is replicated state: replaying the
            # marker restores it, with the write it guards.
            for marker in iter_idempotency_markers(op):
                db.idempotency_keys.put(marker, seq)
        else:  # pragma: no cover - decode_op already rejects these
            raise DurabilityError(f"unknown operation kind {kind!r}")
    except (KeyError, TypeError) as error:
        raise CorruptLogError(
            f"malformed {kind!r} record: {error}"
        ) from error
    except ReproError as error:
        if isinstance(error, (CorruptLogError, DurabilityError)):
            raise
        raise CorruptLogError(
            f"replaying {kind!r} record failed against recovered state: "
            f"{error}"
        ) from error


def _clean_stale_temps(data_dir: str) -> None:
    for name in (f"{SNAPSHOT_FILE}.tmp", f"{WAL_FILE}.rotate"):
        path = os.path.join(data_dir, name)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def _window(records: "list[tuple[int, bytes, int]]") -> "list[tuple[int, bytes, int]]":
    """The longest suffix of *records* within the tail bounds (never empty
    for a non-empty log: the newest record is always kept)."""
    kept = nbytes = 0
    for _seq, payload, _digest in reversed(records):
        nbytes += len(payload)
        if kept == TAIL_FRAMES or (kept and nbytes > TAIL_BYTES):
            break
        kept += 1
    return records[len(records) - kept :]


def recover(
    data_dir: str, name: str | None = None
) -> "tuple[Database, RecoveryReport]":
    """Rebuild the database persisted under *data_dir*.

    Returns the database plus a :class:`RecoveryReport`.  An empty or
    missing directory recovers to an empty database (first boot).
    """
    from ..database import Database

    report = RecoveryReport(data_dir=data_dir)
    metrics = get_metrics()
    with get_tracer().span("durability.recover", data_dir=data_dir) as span:
        os.makedirs(data_dir, exist_ok=True)
        _clean_stale_temps(data_dir)

        snapshot_path = os.path.join(data_dir, SNAPSHOT_FILE)
        snap_seq = 0
        if os.path.exists(snapshot_path):
            from .snapshot import load_snapshot

            db, snap_seq = load_snapshot(snapshot_path, name)
            report.snapshot_loaded = True
            report.snapshot_bytes = os.path.getsize(snapshot_path)
        else:
            db = Database(name if name is not None else "main")
        report.last_seq = snap_seq

        wal_path = os.path.join(data_dir, WAL_FILE)
        if os.path.exists(wal_path):
            scan = scan_wal(wal_path)
            report.records_scanned = len(scan.payloads)
            report.torn_bytes_truncated = truncate_torn_tail(wal_path, scan)
            if report.torn_bytes_truncated:
                metrics.counter("recovery.torn_tails").inc()
            for payload, digest in zip(scan.payloads, scan.digests):
                seq, op = decode_record(payload)
                report.tail.append((seq, payload, digest))
                if seq <= snap_seq:
                    continue  # already folded into the snapshot
                apply_op(db, op, seq)
                report.records_replayed += 1
                report.bytes_replayed += len(payload)
                report.last_seq = max(report.last_seq, seq)
            report.tail = _window(report.tail)

        span.set_attribute("records_replayed", report.records_replayed)
        span.set_attribute("snapshot_loaded", report.snapshot_loaded)
        metrics.counter("recovery.runs").inc()
        metrics.counter("recovery.records_replayed").inc(
            report.records_replayed
        )
        metrics.gauge("recovery.bytes_replayed").set(report.bytes_replayed)
    return db, report
