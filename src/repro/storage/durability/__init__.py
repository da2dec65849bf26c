"""Crash-safe durability for the storage engine.

The paper's improvement service *writes confidence values back* to base
tuples — state the policy framework then relies on — so this subpackage
makes every byte of that state crash-tolerant:

* :mod:`~repro.storage.durability.wal` — a write-ahead log of logical
  operations (length-prefixed, CRC32C-checksummed, fsync'd) with a
  documented torn-tail policy;
* :mod:`~repro.storage.durability.snapshot` — checksummed snapshots
  written via temp-file + fsync + ``os.replace``, enabling WAL
  compaction;
* :mod:`~repro.storage.durability.recovery` — ``recover(dir)`` =
  newest valid snapshot + WAL replay, used by ``Database.open``;
* :mod:`~repro.storage.durability.manager` — the
  :class:`DurabilityManager` journaling a live database;
* :mod:`~repro.storage.durability.faults` — a deterministic
  fault-injection harness (torn writes, bit flips, lost fsyncs,
  crashes) with an explicit page-cache model;
* :mod:`~repro.storage.durability.atomic` /
  :mod:`~repro.storage.durability.retry` — the shared atomic-write
  helpers and transient-IO retry policy reused across the repo (policy
  store, CSV export, trace sinks).

See the "Durability & crash recovery" section of ``docs/ROBUSTNESS.md``
for file formats and recovery invariants.
"""

from .atomic import atomic_text_writer, atomic_write_bytes, atomic_write_text
from .checksum import crc32c
from .codec import (
    decode_cost_model,
    decode_op,
    decode_record,
    decode_schema,
    encode_cost_model,
    encode_op,
    encode_schema,
    iter_idempotency_markers,
)
from .faults import (
    CRASH_POINTS,
    FaultInjector,
    FaultSpec,
    FaultyFile,
    SimulatedCrash,
    iter_fault_specs,
)
from .fileio import OsFile, fsync_dir, os_opener
from .fingerprint import database_fingerprints, table_fingerprint
from .fsck import FsckIssue, FsckReport, fsck_data_dir
from .manager import DurabilityManager
from .recovery import SNAPSHOT_FILE, WAL_FILE, RecoveryReport, apply_op, recover
from .retry import RetryPolicy
from .snapshot import (
    SNAPSHOT_MAGIC,
    database_from_payload,
    load_snapshot,
    populate_database,
    snapshot_payload,
    write_snapshot,
)
from .wal import WAL_MAGIC, ScanResult, WriteAheadLog, scan_wal

__all__ = [
    "atomic_text_writer",
    "atomic_write_bytes",
    "atomic_write_text",
    "crc32c",
    "encode_cost_model",
    "decode_cost_model",
    "encode_schema",
    "decode_schema",
    "encode_op",
    "decode_op",
    "decode_record",
    "iter_idempotency_markers",
    "CRASH_POINTS",
    "FaultInjector",
    "FaultSpec",
    "FaultyFile",
    "SimulatedCrash",
    "iter_fault_specs",
    "OsFile",
    "os_opener",
    "fsync_dir",
    "DurabilityManager",
    "RecoveryReport",
    "recover",
    "apply_op",
    "SNAPSHOT_FILE",
    "WAL_FILE",
    "RetryPolicy",
    "SNAPSHOT_MAGIC",
    "snapshot_payload",
    "populate_database",
    "database_from_payload",
    "write_snapshot",
    "load_snapshot",
    "WAL_MAGIC",
    "ScanResult",
    "WriteAheadLog",
    "scan_wal",
    "table_fingerprint",
    "database_fingerprints",
    "FsckIssue",
    "FsckReport",
    "fsck_data_dir",
]
