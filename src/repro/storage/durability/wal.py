"""The write-ahead log: length-prefixed, checksummed, fsync'd records.

File format (``wal.log``)::

    +--------------------------------------------------------------+
    | magic "PCQEWAL1" (8 bytes)                                   |
    +-------------+---------------+--------------+-----------------+
    | len u32 LE  | payload CRC32C| header CRC32C| payload (len B) |  × N
    +-------------+---------------+--------------+-----------------+

Each record's payload is one JSON-encoded logical operation (see
:mod:`~repro.storage.durability.codec`) carrying a monotonically
increasing ``seq``.  The header checksum covers the length and payload
checksum fields, so a bit flip in the *length* cannot silently send the
scanner off the rails.

Torn-tail policy (the crash-consistency contract):

* a record whose header or payload is **incomplete** (the file ends
  mid-record) is a torn write — the tail is truncated on recovery and
  the log is usable;
* a record that is **complete but fails a checksum** is corruption — a
  torn write produced by a crashed ``write`` is always a *prefix* of the
  record, so a full-length record with a bad CRC means bits changed on
  disk, and recovery raises :class:`~repro.errors.CorruptLogError`
  rather than guess.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field

from ...errors import CorruptLogError, DurabilityError
from .checksum import crc32c
from .faults import FaultInjector
from .fileio import DurableFile, Opener, os_opener
from .retry import RetryPolicy

__all__ = ["WAL_MAGIC", "WriteAheadLog", "ScanResult", "scan_wal", "read_log"]

WAL_MAGIC = b"PCQEWAL1"
_HEADER = struct.Struct("<III")  # payload length, payload CRC, header CRC
_LEN_CRC = struct.Struct("<II")
#: Upper bound on a single record; anything larger is framing corruption.
MAX_RECORD_BYTES = 64 * 1024 * 1024


def _frame(payload: bytes, checksum=crc32c) -> tuple[bytes, int]:
    """The framed record for *payload*, and the payload checksum in it."""
    if len(payload) > MAX_RECORD_BYTES:
        raise DurabilityError(
            f"WAL record of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte limit"
        )
    payload_crc = checksum(payload)
    length_crc = _LEN_CRC.pack(len(payload), payload_crc)
    record = length_crc + struct.pack("<I", checksum(length_crc)) + payload
    return record, payload_crc


@dataclass(frozen=True)
class Damage:
    """Where and why a durability file stops being readable: the check that
    failed (``repro fsck`` reports it as ``wal-<kind>`` / ``snapshot-<kind>``),
    its byte offset, and the sentence recovery's error and fsck's issue carry."""

    kind: str
    offset: int
    reason: str

    @property
    def torn(self) -> bool:
        """An incomplete final write (recovery truncates it), not corruption."""
        return self.kind.startswith("torn")


@dataclass
class ScanResult:
    """Outcome of scanning a WAL file."""

    payloads: list[bytes]
    good_length: int  #: byte offset up to which the log is intact
    file_length: int  #: actual file size (> good_length ⇒ torn tail)
    #: Each payload's byte offset and verified checksum, in step with it.
    offsets: list[int] = field(default_factory=list)
    digests: list[int] = field(default_factory=list)
    damage: "Damage | None" = None  #: why the scan stopped at good_length

    @property
    def torn_bytes(self) -> int:
        return self.file_length - self.good_length


def read_log(path: "str | os.PathLike[str]", checksum=crc32c) -> ScanResult:
    """Walk the log at *path*: the one reader of the record framing.

    Never raises on what the file holds and never modifies it.  The walk
    ends at the first record that is not intact, and ``damage`` says which
    check failed there: ``torn-magic`` / ``torn-header`` / ``torn-payload``
    (the file ends mid-write) or ``bad-magic`` / ``header-checksum`` /
    ``bad-length`` / ``payload-checksum`` (the bytes are there and wrong).
    :func:`scan_wal` raises on the second group; ``fsck`` reports both.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    size = len(data)
    scan = ScanResult([], 0, size)
    if not data:
        return scan  # created, nothing written yet
    offset, found = len(WAL_MAGIC), None
    if data[:offset] != WAL_MAGIC:
        offset = 0
        if WAL_MAGIC.startswith(data):  # only a prefix of the magic landed
            found = "torn-magic", (
                f"only {size} of {len(WAL_MAGIC)} magic bytes present"
            )
        else:
            found = "bad-magic", "not a PCQE write-ahead log (bad magic)"
    while offset < size and found is None:
        body = offset + _HEADER.size
        if body > size:
            found = "torn-header", (
                f"file ends {size - offset} byte(s) into a {_HEADER.size}-byte "
                f"record header"
            )
            break
        length, payload_crc, header_crc = _HEADER.unpack_from(data, offset)
        if checksum(data[offset : offset + _LEN_CRC.size]) != header_crc:
            found = "header-checksum", (
                f"record header checksum mismatch at offset {offset}"
            )
        elif length > MAX_RECORD_BYTES:
            found = "bad-length", (
                f"implausible record length {length} at offset {offset}"
            )
        elif body + length > size:
            found = "torn-payload", (
                f"file ends {size - body} byte(s) into a {length}-byte payload"
            )
        elif checksum(payload := data[body : body + length]) != payload_crc:
            found = "payload-checksum", (
                f"record payload checksum mismatch at offset {offset} "
                f"(record {len(scan.payloads)})"
            )
        else:
            scan.payloads.append(payload)
            scan.offsets.append(offset)
            scan.digests.append(payload_crc)
            offset = body + length
    scan.good_length = offset
    if found is not None:
        scan.damage = Damage(found[0], offset, found[1])
    return scan


def scan_wal(path: "str | os.PathLike[str]", checksum=crc32c) -> ScanResult:
    """Read every intact record of the log at *path*.

    Applies the torn-tail policy documented in the module docstring;
    raises :class:`CorruptLogError` on checksum corruption or a foreign
    file, and never raises for a well-formed torn tail.  *checksum* must
    match the function the log was written with — the storage WAL uses
    the default CRC32C; the audit journal frames with ``zlib.crc32``.
    """
    scan = read_log(path, checksum)
    if scan.damage is not None and not scan.damage.torn:
        raise CorruptLogError(f"{path}: {scan.damage.reason}")
    return scan


def truncate_torn_tail(path: "str | os.PathLike[str]", scan: ScanResult) -> int:
    """Physically truncate a torn tail found by :func:`scan_wal`.

    Returns the number of bytes removed (0 if the log was intact).  The
    truncation itself is fsync'd so recovery is idempotent.
    """
    if scan.torn_bytes <= 0:
        return 0
    fd = os.open(path, os.O_RDWR)
    try:
        os.ftruncate(fd, scan.good_length)
        os.fsync(fd)
    finally:
        os.close(fd)
    return scan.torn_bytes


class WriteAheadLog:
    """Appender for the WAL file (reading goes through :func:`scan_wal`).

    Appends are framed, checksummed, written, and (by default) fsync'd
    before :meth:`append` returns — a record the caller saw committed is
    durable.  Transient ``OSError`` s are retried under *retry* after
    rewinding to the record boundary, so a half-written first attempt
    cannot linger in front of its retry.

    Appends are single-writer: an internal lock serializes concurrent
    appenders (the partial-write rewind state in ``_dirty``/``_size`` is
    per-log, so interleaved frames from two threads would corrupt the
    file), and a re-entrant append from the same thread — e.g. a fault
    hook or retry callback journaling — raises
    :class:`~repro.errors.DurabilityError` instead of deadlocking.
    """

    def __init__(
        self,
        path: str,
        opener: Opener = os_opener,
        *,
        sync: bool = True,
        retry: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        on_retry=None,
        checksum=crc32c,
    ) -> None:
        self.path = path
        self._opener = opener
        self._sync = sync
        self._checksum = checksum
        self._retry = retry
        self._injector = injector
        self._on_retry = on_retry
        existing = os.path.getsize(path) if os.path.exists(path) else 0
        self._file: DurableFile = opener(path, "ab")
        if existing == 0:
            self._file.write(WAL_MAGIC)
            self._file.fsync()
            existing = len(WAL_MAGIC)
        self._size = existing
        self._dirty = False
        self._lock = threading.Lock()
        self._writer: int | None = None  # thread id holding the lock

    @property
    def size_bytes(self) -> int:
        """Logical size of the log (header + committed records)."""
        return self._size

    def _hit(self, point: str) -> None:
        if self._injector is not None:
            self._injector.hit(point)

    def append(self, payload: bytes) -> tuple[int, int]:
        """Durably append one record.

        Returns ``(bytes written, payload checksum)`` — the checksum is
        the one pass over the payload this log makes; callers that need a
        digest of the same bytes (a replica's divergence window) reuse it.
        """
        record, payload_crc = _frame(payload, self._checksum)
        if self._writer == threading.get_ident():
            raise DurabilityError(
                f"re-entrant WriteAheadLog.append on {self.path}: append "
                f"was called from inside an append on the same thread "
                f"(journal hooks must not journal)"
            )
        with self._lock:
            self._writer = threading.get_ident()
            try:
                return self._append_locked(record), payload_crc
            finally:
                self._writer = None

    def _append_locked(self, record: bytes) -> int:
        start = self._size
        if self._dirty:
            # A previous append failed after possibly writing part of its
            # record; rewind to the last committed boundary first.
            self._file.truncate(start)
            self._dirty = False
        self._hit("wal.append.before_write")
        self._dirty = True

        def write_record() -> None:
            self._file.write(record)

        def write_record_rewound() -> None:
            # A failed attempt may have written part of the record; rewind
            # to the boundary so the retry cannot produce two copies.
            self._file.truncate(start)
            self._file.write(record)

        if self._retry is None:
            write_record()
            if self._sync:
                self._file.fsync()
        else:
            first = True

            def attempt() -> None:
                nonlocal first
                if first:
                    first = False
                    write_record()
                else:
                    write_record_rewound()
                if self._sync:
                    self._file.fsync()

            self._retry.call(attempt, on_retry=self._on_retry)
        self._hit("wal.append.after_fsync")
        self._dirty = False
        self._size = start + len(record)
        return len(record)

    def rotate(self) -> None:
        """Atomically reset the log to empty (WAL compaction).

        A fresh header-only file is prepared next to the log, fsync'd,
        and ``os.replace``'d over it; a crash at any point leaves either
        the full old log or the fresh empty one.
        """
        if self._writer == threading.get_ident():
            raise DurabilityError(
                f"re-entrant WriteAheadLog.rotate on {self.path} from "
                f"inside an append on the same thread"
            )
        with self._lock:
            self._file.close()
            temp = f"{self.path}.rotate"
            fresh = self._opener(temp, "wb")
            try:
                fresh.write(WAL_MAGIC)
                fresh.fsync()
            finally:
                fresh.close()
            os.replace(temp, self.path)
            from .fileio import fsync_dir

            fsync_dir(os.path.dirname(os.path.abspath(self.path)))
            self._hit("checkpoint.after_wal_rotate")
            self._file = self._opener(self.path, "ab")
            self._size = len(WAL_MAGIC)
            self._dirty = False

    def close(self) -> None:
        with self._lock:
            self._file.close()
