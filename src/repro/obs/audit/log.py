"""The append-only audit journal.

Every record is one JSON object framed through the storage layer's
write-ahead-log format (:mod:`repro.storage.durability.wal`): length
prefix, CRC32C payload and header checksums, torn-tail truncation on
reopen.  An audit trail must be trustworthy after a crash — a record the
caller saw appended is intact or provably absent, never silently mangled.

Record kinds (all carry ``query_id``; the ``query`` record additionally
carries ``schema``, declaring the record layout for its whole trail):

``query``
    One per PCQE ``ask``: user, purpose, the matched policy's role, the
    effective threshold β, the requested fraction θ, the SQL text, and —
    for an ask served on a pinned snapshot — that snapshot's ``seq``.
``decision``
    One per result tuple per enforcement pass: the tuple's values, its
    computed confidence, the verdict (``released``/``blocked``), the
    contributing base-tuple lineage (ids + confidences at decision time),
    and the ``phase`` (``initial`` or ``post_increment``).  The engine
    records ``post_increment`` decisions only for tuples whose confidence
    or verdict the increment actually changed — an unchanged tuple's
    ``initial`` record remains its decision of record.
``increment``
    A strategy-finding write-back: quoted cost, approval, and the target
    confidence per base tuple.
``outcome``
    The query's final status plus released/withheld/shortfall counts.

Records are written in deterministic order (decisions follow result-set
order), so replay reconstructs the live run byte-for-byte.

Write batching
--------------
Records buffer in memory per query and land as **one WAL frame per
query** when ``end_query`` closes the trail — one checksum + one write
per ask instead of one per record, and crash atomicity at query
granularity: after recovery a query's trail is either complete or
absent, never half-audited.  The frame payload is the batch encoded as
**one canonical JSON array** (sorted keys, compact separators): a single
C-speed ``json.dumps`` call, and each record's canonical document is a
byte-identical substring of the frame, so replay can be verified
directly against the bytes on disk.

The batch is encoded and appended synchronously inside ``end_query`` —
one bounded, predictable cost per ask, and a finished query's trail is
on disk when ``end_query`` returns.  A write failure is counted under
``audit.write_errors`` and surfaced on :attr:`write_error`;
:meth:`close` flushes any trail whose query died mid-pipeline.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from typing import Any, Iterable, Mapping

from ...storage.durability.retry import RetryPolicy
from ...storage.durability.wal import WriteAheadLog, scan_wal, truncate_torn_tail
from ..metrics import get_metrics

__all__ = ["AUDIT_SCHEMA_VERSION", "AuditLog", "read_audit_log"]

#: Version of the audit record layout; bump on incompatible changes.
AUDIT_SCHEMA_VERSION = 1

_VERDICTS = ("released", "blocked")


def _crc32(data: bytes) -> int:
    """The audit journal's frame checksum: zlib's C-speed CRC32.

    The storage WAL keeps CRC32C (its on-disk format predates this
    module); the audit journal reuses the same frame layout and torn-tail
    discipline but checksums at C speed — per-query batches are large
    enough that a pure-Python CRC would tax the serving path.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


def _encode(record: Mapping[str, Any]) -> bytes:
    """Canonical byte encoding: compact separators, sorted keys."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _encode_batch(batch: "list[dict[str, Any]]") -> bytes:
    """One query's frame payload: the batch as one canonical JSON array.

    A single ``json.dumps`` call is ~2× cheaper than encoding records one
    by one, and because list/dict encoding share the same canonical
    settings, each element of the array is byte-identical to
    ``_encode(record)`` — replay can re-derive the exact frame bytes.

    ``sort_keys`` is deliberately omitted: every record constructor in
    this module builds its dict in sorted key order (Python dicts
    preserve insertion order), so plain encoding already produces the
    canonical bytes while skipping a per-dict ``sorted`` on the hot
    path.  The invariant is enforced end-to-end — the obs smoke and the
    unit tests re-encode parsed frames through :func:`_encode` (which
    *does* sort) and require byte identity with the disk frames.
    """
    return json.dumps(batch, separators=(",", ":")).encode("utf-8")


def read_audit_log(path: "str | os.PathLike[str]") -> list[dict[str, Any]]:
    """Every intact record of the journal at *path*, in append order.

    A torn tail (crash mid-append) is skipped, matching the WAL's
    recovery contract; checksum corruption raises
    :class:`~repro.errors.CorruptLogError`.
    """
    if not os.path.exists(path):
        return []
    scan = scan_wal(path, checksum=_crc32)
    records: list[dict[str, Any]] = []
    for payload in scan.payloads:
        # One frame = one query's batch, a canonical JSON array.
        records.extend(json.loads(payload.decode("utf-8")))
    return records


class AuditLog:
    """Append-only, checksummed journal of PCQE release/block decisions.

    Parameters
    ----------
    path:
        Journal file (conventionally ``audit.log``).  Reopening an
        existing journal truncates any torn tail and resumes the query-id
        counter after the highest id already recorded.
    sync:
        fsync every record (per-decision durability).  The default
        ``False`` leaves durability at OS-crash granularity but keeps the
        audit overhead within the serving path's budget; records are
        still written straight to the file descriptor, so a process crash
        loses nothing already appended.
    retry:
        :class:`~repro.storage.durability.retry.RetryPolicy` for
        transient append IO errors.
    """

    def __init__(
        self,
        path: str,
        *,
        sync: bool = False,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._metrics = get_metrics()
        last_query = 0
        if os.path.exists(path) and os.path.getsize(path) > 0:
            scan = scan_wal(path, checksum=_crc32)
            truncate_torn_tail(path, scan)
            for payload in scan.payloads:
                for record in json.loads(payload.decode("utf-8")):
                    number = _query_number(record.get("query_id", ""))
                    last_query = max(last_query, number)
        self._wal = WriteAheadLog(
            path, sync=sync, retry=retry, checksum=_crc32
        )
        self._next_query = last_query + 1
        #: query_id -> record dicts awaiting their end_query flush.
        self._buffers: dict[str, list[dict[str, Any]]] = {}
        self._closed = False
        self._error: BaseException | None = None

    @property
    def write_error(self) -> BaseException | None:
        """The first append failure, if any (also counted under
        ``audit.write_errors``)."""
        return self._error

    # -- record appends ----------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        """Buffer one record under its query's pending batch."""
        query_id = str(record.get("query_id", ""))
        with self._lock:
            if self._closed:
                raise ValueError(f"audit log {self.path} is closed")
            self._buffers.setdefault(query_id, []).append(record)

    def _write_batch(self, batch: list[dict[str, Any]]) -> None:
        """Encode, checksum and append one query's batch as one frame."""
        try:
            nbytes, _ = self._wal.append(_encode_batch(batch))
        except BaseException as error:  # surfaced via write_error
            if self._error is None:
                self._error = error
            self._metrics.counter("audit.write_errors").inc()
            return
        decisions = sum(1 for record in batch if record["kind"] == "decision")
        self._metrics.counter("audit.records").inc(len(batch))
        self._metrics.counter("audit.decisions").inc(decisions)
        self._metrics.counter("audit.bytes").inc(nbytes)

    def begin_query(
        self,
        *,
        user: str,
        purpose: str,
        role: str,
        threshold: float,
        required_fraction: float,
        sql: str,
        seq: int | None = None,
    ) -> str:
        """Open a query trail; returns its id (``q1``, ``q2``, …).

        *seq* is the pinned snapshot the query read (a served ask's); the
        key is only written when given, so a trail over a live database
        stays byte-identical to earlier journal versions.
        """
        with self._lock:
            query_id = f"q{self._next_query}"
            self._next_query += 1
        # Keys in sorted order — the _encode_batch fast path relies on it.
        self._append(
            {
                "kind": "query",
                "purpose": purpose,
                "query_id": query_id,
                "required_fraction": required_fraction,
                "role": role,
                "schema": AUDIT_SCHEMA_VERSION,
                **({} if seq is None else {"seq": seq}),
                "sql": sql,
                "threshold": threshold,
                "user": user,
            }
        )
        self._metrics.counter("audit.queries").inc()
        return query_id

    def record_decisions(
        self,
        query_id: str,
        decisions: "Iterable[tuple[str, Iterable[Any], float, str, str, Iterable[tuple[str, float]]]]",
    ) -> None:
        """One enforcement pass's verdicts, batched.

        *decisions* yields ``(tuple_id, values, confidence, verdict,
        phase, lineage)`` tuples in result-set order.  The engine records
        a whole pass in one call — one lock acquisition instead of one
        per result row, which matters on wide results.
        """
        batch = []
        for tuple_id, values, confidence, verdict, phase, lineage in decisions:
            if verdict not in _VERDICTS:
                raise ValueError(
                    f"verdict must be one of {_VERDICTS}, got {verdict!r}"
                )
            # Keys in sorted order — _encode_batch relies on it.
            batch.append(
                {
                    "confidence": confidence,
                    "kind": "decision",
                    "lineage": [[tid, conf] for tid, conf in lineage],
                    "phase": phase,
                    "query_id": query_id,
                    "tuple_id": tuple_id,
                    "values": list(values),
                    "verdict": verdict,
                }
            )
        if not batch:
            return
        with self._lock:
            if self._closed:
                raise ValueError(f"audit log {self.path} is closed")
            self._buffers.setdefault(query_id, []).extend(batch)

    def record_increment(
        self,
        query_id: str,
        *,
        approved: bool,
        cost: float,
        targets: Mapping[str, float],
    ) -> None:
        """A quoted (and possibly applied) confidence-increment strategy."""
        self._append(
            {
                "approved": approved,
                "cost": cost,
                "kind": "increment",
                "query_id": query_id,
                "targets": {tid: conf for tid, conf in sorted(targets.items())},
            }
        )

    def end_query(
        self,
        query_id: str,
        *,
        status: str,
        released: int,
        withheld: int,
        shortfall: int = 0,
        degraded: bool = False,
    ) -> None:
        """Close a query trail with its final outcome and flush its batch.

        ``degraded`` records that the increment plan came from a
        degradation path (fallback hop or exhausted-budget incumbent);
        the key is only written when set, and "degraded" sorts before
        every existing key, so records from non-degraded queries stay
        byte-identical to earlier journal versions.
        """
        record: dict = {
            "kind": "outcome",
            "query_id": query_id,
            "released": released,
            "shortfall": shortfall,
            "status": status,
            "withheld": withheld,
        }
        if degraded:
            record = {"degraded": True, **record}
        self._append(record)
        with self._lock:
            batch = self._buffers.pop(query_id)
        self._write_batch(batch)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush pending trails, close the journal.

        A trail still buffered here belongs to a query that died before
        ``end_query`` (pipeline exception); its partial records are
        flushed so the journal keeps the evidence.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = [
                self._buffers[query_id]
                for query_id in sorted(self._buffers, key=_query_number)
                if self._buffers[query_id]
            ]
            self._buffers.clear()
        for batch in leftovers:
            self._write_batch(batch)
        self._wal.close()

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _query_number(query_id: str) -> int:
    if query_id.startswith("q") and query_id[1:].isdigit():
        return int(query_id[1:])
    return 0
