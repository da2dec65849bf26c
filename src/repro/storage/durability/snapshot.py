"""Checksummed database snapshots, written atomically.

File format (``snapshot.snap``)::

    +---------------------------------------------------------------+
    | magic "PCQESNP1" (8 bytes)                                    |
    +--------------+----------------+-------------------------------+
    | version u32  | payload CRC32C | payload length u64 LE         |
    +--------------+----------------+----------+--------------------+
    | payload: JSON document (see below)       |
    +------------------------------------------+

The payload is the complete logical database state — per table: schema,
indexed columns, ``next_ordinal``, and every row as ``(ordinal, values,
confidence, cost model)`` — plus the view catalog, ``wal_seq``, the
sequence number of the last WAL record folded into the snapshot, and —
only when there is one — ``idempotency``, the exactly-once map
(``[client, key, seq]`` triples, least recently used first) of the keyed
writes folded in with it.
Recovery replays only WAL records with ``seq > wal_seq``, which is what
makes "write snapshot, then compact the WAL" crash-safe in either order.

Writing follows the temp-file + ``fsync`` + ``os.replace`` protocol, so
a reader observes either the previous snapshot or the complete new one.
A snapshot that fails its magic/framing/checksum check raises
``CorruptSnapshotError`` — loudly, because after WAL
compaction an unreadable snapshot cannot be silently substituted.
"""

from __future__ import annotations

import json
import os
import struct
from typing import TYPE_CHECKING, Any

from ...errors import DurabilityError
from .checksum import crc32c
from .codec import (
    decode_cost_model,
    decode_schema,
    encode_cost_model,
    encode_schema,
)
from .faults import FaultInjector
from .fileio import Opener, fsync_dir, os_opener
from .wal import Damage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..database import Database

__all__ = [
    "SNAPSHOT_MAGIC",
    "snapshot_payload",
    "populate_database",
    "database_from_payload",
    "write_snapshot",
    "read_snapshot",
    "load_snapshot",
]

SNAPSHOT_MAGIC = b"PCQESNP1"
_FRAME = struct.Struct("<IIQ")  # version, payload CRC, payload length
FORMAT_VERSION = 1


def snapshot_payload(db: "Database", wal_seq: int) -> dict[str, Any]:
    """The complete logical state of *db* as a JSON-able document."""
    tables = []
    for table in db.tables():
        tables.append(
            {
                "name": table.name,
                "columns": encode_schema(table.schema),
                "next_ordinal": table._next_ordinal,
                "rows": [
                    {
                        "o": row.tid.ordinal,
                        "v": list(row.values),
                        "c": row.confidence,
                        "m": encode_cost_model(row.cost_model),
                    }
                    for row in table.scan()
                ],
            }
        )
    payload = {
        "format": FORMAT_VERSION,
        "name": db.name,
        "wal_seq": wal_seq,
        "tables": tables,
        "views": [[name, db.view_definition(name)] for name in db.view_names()],
    }
    keys = db.idempotency_keys.items()
    if keys:  # omitted when empty: older readers and byte-identical files
        payload["idempotency"] = [
            [client, key, seq] for (client, key), seq in keys
        ]
    return payload


def populate_database(db: "Database", payload: dict[str, Any]) -> int:
    """Load :func:`snapshot_payload` state into an *empty* database.

    Shared between cold recovery (:func:`database_from_payload`) and a
    replica's in-place resync rebuild.  Returns the payload's
    ``wal_seq``.  A table's ``indexes`` list, which older snapshots
    carry, is ignored: tables keep no secondary index; the ``idempotency``
    list, which they lack, restores the exactly-once map.
    """
    from ..tuples import StoredTuple, TupleId

    if payload.get("format") != FORMAT_VERSION:
        raise DurabilityError(
            f"unsupported snapshot format {payload.get('format')!r}",
            code="CorruptSnapshotError",
        )
    try:
        for spec in payload["tables"]:
            table = db.create_table(spec["name"], decode_schema(spec["columns"]))
            for row in spec["rows"]:
                table._force_insert(
                    StoredTuple(
                        tid=TupleId(spec["name"], row["o"]),
                        values=tuple(row["v"]),
                        confidence=row["c"],
                        cost_model=decode_cost_model(row.get("m")),
                    )
                )
            table._next_ordinal = max(
                table._next_ordinal, spec.get("next_ordinal", 0)
            )
        for view_name, sql in payload.get("views", ()):
            db.create_view(view_name, sql)
        for client, key, seq in payload.get("idempotency", ()):
            db.idempotency_keys.put((client, key), seq)
    except (KeyError, TypeError, ValueError, DurabilityError) as error:
        raise DurabilityError(
            f"malformed snapshot payload: {error}",
            code="CorruptSnapshotError",
        ) from error
    return int(payload.get("wal_seq", 0))


def database_from_payload(
    payload: dict[str, Any], name: str | None = None
) -> "tuple[Database, int]":
    """Rebuild a :class:`Database` from :func:`snapshot_payload` output."""
    from ..database import Database

    db = Database(name if name is not None else payload.get("name", "main"))
    wal_seq = populate_database(db, payload)
    return db, wal_seq


def write_snapshot(
    db: "Database",
    path: str,
    wal_seq: int,
    opener: Opener = os_opener,
    injector: FaultInjector | None = None,
) -> int:
    """Atomically write *db*'s state to *path*; returns the bytes written.

    Protocol: serialize → write ``<path>.tmp`` through *opener* → fsync
    → close → ``os.replace`` → fsync the directory.  Crash points fire
    around the rename so the fault harness can kill the process at every
    interesting instant.
    """
    payload = json.dumps(
        snapshot_payload(db, wal_seq), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    frame = (
        SNAPSHOT_MAGIC
        + _FRAME.pack(FORMAT_VERSION, crc32c(payload), len(payload))
        + payload
    )
    temp = f"{path}.tmp"
    handle = opener(temp, "wb")
    try:
        handle.write(frame)
        handle.fsync()
    finally:
        handle.close()
    if injector is not None:
        injector.hit("snapshot.before_replace")
    os.replace(temp, path)
    if injector is not None:
        injector.hit("snapshot.after_replace")
    fsync_dir(os.path.dirname(os.path.abspath(path)))
    return len(frame)


def read_snapshot(
    path: "str | os.PathLike[str]",
) -> "tuple[int, dict[str, Any] | Damage]":
    """Read and verify the snapshot file at *path*: the one reader of its
    header (magic, version, declared length, payload CRC32C, JSON object).

    Returns the file's size and the document — or the :class:`Damage` that
    says why there is none.  Never raises on what the file holds;
    :func:`load_snapshot` raises the verdict, ``fsck`` reports it.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    size, magic = len(data), len(SNAPSHOT_MAGIC)
    body = magic + _FRAME.size
    if size < body or data[:magic] != SNAPSHOT_MAGIC:
        return size, Damage(
            "bad-header", 0, "not a PCQE snapshot (bad or truncated header)"
        )
    version, payload_crc, length = _FRAME.unpack_from(data, magic)
    payload = data[body:]
    if version != FORMAT_VERSION:
        return size, Damage(
            "bad-version", magic, f"unsupported snapshot version {version}"
        )
    if len(payload) != length:
        return size, Damage(
            "truncated", body,
            f"snapshot payload is {len(payload)} bytes, header declares {length}",
        )
    if crc32c(payload) != payload_crc:
        return size, Damage("checksum", body, "snapshot checksum mismatch")
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return size, Damage(
            "bad-json", body, f"snapshot payload is not valid JSON: {error}"
        )
    if not isinstance(document, dict) or not isinstance(
        document.get("wal_seq", 0), int
    ):
        return size, Damage(
            "bad-json", body,
            "snapshot payload is not a JSON object with an integer 'wal_seq'",
        )
    return size, document


def load_snapshot(
    path: "str | os.PathLike[str]", name: str | None = None
) -> "tuple[Database, int]":
    """Load and verify the snapshot at *path*.

    Raises ``CorruptSnapshotError`` on any framing or checksum
    failure — including a zero-length file left by an un-fsync'd rename.
    """
    _size, found = read_snapshot(path)
    if isinstance(found, Damage):
        raise DurabilityError(f"{path}: {found.reason}", code="CorruptSnapshotError")
    return database_from_payload(found, name)
