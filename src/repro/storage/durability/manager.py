"""The durability manager: one WAL + snapshot pair behind a database.

A :class:`DurabilityManager` attaches to a
:class:`~repro.storage.database.Database` and receives every logical
mutation through the journal hooks (``Table._journal`` and the
database's catalog paths).  Each hand-off becomes one fsync'd WAL record
— a statement is one mutation and one hand-off: an ``update_rows`` op, or
the ``insert`` / ``delete`` ops of a multi-row INSERT / DELETE as one
``batch``; :meth:`batch` groups what spans hand-offs (a write-back over
several tables, a statement plus its idempotency marker) into a single
atomic record; :meth:`checkpoint` writes a checksummed snapshot and
compacts the WAL.

Observability: every append runs under a ``wal.append`` span (no-op
unless tracing is enabled) and moves ``wal.records`` / ``wal.bytes`` /
``wal.fsyncs`` counters plus a ``wal.size_bytes`` gauge; checkpoints
move ``wal.checkpoints`` and ``snapshot.bytes``; transient-IO retries
move ``wal.retries``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from ...errors import DurabilityError
from ...obs import get_metrics, get_tracer
from .codec import decode_record, encode_op, iter_idempotency_markers
from .faults import FaultInjector, FaultyFile
from .fileio import DurableFile, os_opener
from .recovery import SNAPSHOT_FILE, WAL_FILE
from .retry import RetryPolicy
from .wal import WriteAheadLog, scan_wal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..database import Database

__all__ = ["DurabilityManager"]


class DurabilityManager:
    """Crash-safe persistence for one database directory.

    Parameters
    ----------
    data_dir:
        Directory holding ``wal.log`` and ``snapshot.snap``.
    sync:
        fsync every WAL append (the default).  ``False`` trades the
        single-op durability guarantee for speed: a crash may lose the
        unsynced suffix, but never corrupts what was synced.
    retry:
        :class:`RetryPolicy` for transient append-path IO errors.
    checkpoint_bytes:
        Auto-checkpoint when the WAL grows past this size (``None`` =
        manual checkpoints only).
    faults:
        A :class:`FaultInjector` for crash testing; file IO then runs
        through :class:`FaultyFile` so torn writes and lost fsyncs are
        simulated at the byte level.
    """

    def __init__(
        self,
        data_dir: str,
        *,
        sync: bool = True,
        retry: RetryPolicy | None = None,
        checkpoint_bytes: int | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.sync = sync
        self.checkpoint_bytes = checkpoint_bytes
        self._injector = faults
        self._metrics = get_metrics()
        self._wal = WriteAheadLog(
            os.path.join(data_dir, WAL_FILE),
            opener=lambda path, mode: self._open(path, mode, "wal"),
            sync=sync,
            retry=retry,
            injector=faults,
            on_retry=self._count_retry,
        )
        self._db: "Database | None" = None
        self._seq = 0
        self._batch: "list[dict[str, Any]] | None" = None
        self._closed = False
        self._suspended = False
        self._listeners: "list[Any]" = []
        #: Payload checksum of the newest durable record — the one pass the
        #: log's framing made over it, for a commit listener to keep.
        self.last_digest = 0
        self._tail: "list[tuple[int, bytes, int]] | None" = None

    # -- wiring ------------------------------------------------------------

    def _open(self, path: str, mode: str, tag: str) -> DurableFile:
        if self._injector is not None:
            return FaultyFile(path, mode, self._injector, tag)
        return os_opener(path, mode)

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        self._metrics.counter("wal.retries").inc()

    def attach(
        self,
        db: "Database",
        last_seq: int,
        tail: "list[tuple[int, bytes, int]] | None" = None,
    ) -> None:
        """Start journaling *db* (state must already match the log).

        *tail* is ``RecoveryReport.tail``, held for :meth:`take_tail`."""
        self._db = db
        self._seq = last_seq
        self._tail = tail
        db._durability = self
        for table in db.tables():
            table._journal = self.log_op

    @property
    def last_seq(self) -> int:
        return self._seq

    @property
    def wal_size_bytes(self) -> int:
        return self._wal.size_bytes

    # -- journaling --------------------------------------------------------

    def log_op(self, op: dict[str, Any]) -> None:
        """Journal one mutation — one op, or a ``batch`` of them (a multi-row
        insert or delete); buffered, flat, inside an open batch."""
        if self._suspended:
            return
        ops = op["ops"] if op["op"] == "batch" else [op]
        if self._batch is not None:
            self._batch.extend(ops)
        else:
            self._commit_ops(ops)

    def _commit_ops(self, ops: "list[dict[str, Any]]") -> None:
        if len(ops) == 1:
            self._commit(ops[0])
        elif ops:
            self._commit({"op": "batch", "ops": ops})

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Silence the journal hooks for the duration of the block.

        Used when replaying state that is *already* in the log — a
        replica applying an imported frame, or a resync rebuilding from
        a primary snapshot — so the mutation does not journal twice.
        """
        previous, self._suspended = self._suspended, True
        try:
            yield
        finally:
            self._suspended = previous

    # -- replication hooks -------------------------------------------------

    def add_commit_listener(self, listener: Any) -> None:
        """Call ``listener(seq, payload)`` after every durable record."""
        self._listeners.append(listener)

    def remove_commit_listener(self, listener: Any) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _append(self, span: str, seq: int, payload: bytes, **attrs: Any) -> None:
        """The one durable append, a commit's or an imported frame's:
        framed and fsync'd, counted, its checksum kept, listeners told."""
        with get_tracer().span(span, **attrs, seq=seq) as active:
            nbytes, self.last_digest = self._wal.append(payload)
            active.set_attribute("bytes", nbytes)
        self._seq = seq
        self._metrics.counter("wal.records").inc()
        self._metrics.counter("wal.bytes").inc(nbytes)
        if self.sync:
            self._metrics.counter("wal.fsyncs").inc()
        self._metrics.gauge("wal.size_bytes").set(self._wal.size_bytes)
        self._tail = None  # no longer the log's tail: release it
        for listener in list(self._listeners):
            listener(seq, payload)

    def take_tail(self) -> "list[tuple[int, bytes, int]]":
        """The log's last records as ``(seq, payload, payload checksum)``,
        for a replication feed to start from: the ones recovery just read
        and verified, handed over once — or, when something was journaled
        since (or they were already taken), the log read again."""
        tail, self._tail = self._tail, None
        if tail is None:
            scan = scan_wal(self._wal.path)
            tail = [
                (decode_record(payload)[0], payload, digest)
                for payload, digest in zip(scan.payloads, scan.digests)
            ]
        return tail

    def import_frame(self, payload: bytes, seq: int) -> int:
        """Append a primary-authored WAL record verbatim (replica path).

        Returns the payload's CRC32C, computed once while framing it.
        The payload already carries its ``seq``; frames must arrive in
        order with no gaps so the replica's log stays a byte-prefix of
        the primary's.  Deliberately does **not** auto-checkpoint: the
        in-memory apply happens after the import, and a checkpoint cut
        between them would record a snapshot seq ahead of the state.
        Callers run :meth:`maybe_checkpoint` once the frame is applied.
        """
        if seq != self._seq + 1:
            raise DurabilityError(
                f"out-of-order frame import: got seq {seq}, "
                f"expected {self._seq + 1}"
            )
        self._append("wal.import", seq, payload)
        return self.last_digest

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group every op journaled inside into one atomic WAL record.

        A statement that raises has changed — so buffered — nothing, but
        the block may be any callable, one that applied a mutation and then
        raised: the buffered ops are committed even then.  Journal hooks
        fire *after* each in-memory mutation, so the buffer is exactly what
        was applied, and flushing it keeps log and memory convergent.
        Nested batches flatten into the outermost record.
        """
        if self._batch is not None:
            yield  # nested: outer batch owns the commit
            return
        self._batch = []
        try:
            yield
        finally:
            buffered, self._batch = self._batch, None
            self._commit_ops(buffered)

    def _commit(self, op: dict[str, Any]) -> None:
        encoded = encode_op(op)
        self._seq += 1
        encoded["seq"] = self._seq
        payload = json.dumps(encoded, separators=(",", ":")).encode("utf-8")
        self._append("wal.append", self._seq, payload, op=op.get("op", "?"))
        # Durable: the keys it carried are now answered, not re-executed
        # (recorded before a checkpoint can fold the record away).
        for marker in iter_idempotency_markers(op):
            self._db.idempotency_keys.put(marker, self._seq)
        self.maybe_checkpoint()

    def maybe_checkpoint(self) -> bool:
        """Checkpoint if the WAL has outgrown ``checkpoint_bytes``."""
        if (
            self.checkpoint_bytes is not None
            and self._wal.size_bytes >= self.checkpoint_bytes
        ):
            self.checkpoint()
            return True
        return False

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> int:
        """Write a snapshot and compact the WAL; returns snapshot bytes.

        Crash-safe in both directions: the snapshot lands atomically and
        records ``wal_seq``, so replaying a not-yet-rotated WAL over it
        skips everything already folded in.
        """
        if self._db is None:
            raise RuntimeError("checkpoint before attach")
        from .snapshot import write_snapshot

        if self._injector is not None:
            self._injector.hit("checkpoint.before_snapshot")
        with get_tracer().span("durability.checkpoint", seq=self._seq) as span:
            nbytes = write_snapshot(
                self._db,
                os.path.join(self.data_dir, SNAPSHOT_FILE),
                wal_seq=self._seq,
                opener=lambda path, mode: self._open(path, mode, "snapshot"),
                injector=self._injector,
            )
            self._wal.rotate()
            span.set_attribute("snapshot_bytes", nbytes)
        self._metrics.counter("wal.checkpoints").inc()
        self._metrics.gauge("snapshot.bytes").set(nbytes)
        self._metrics.gauge("wal.size_bytes").set(self._wal.size_bytes)
        return nbytes

    def reset_to(self, seq: int) -> None:
        """Realign the durable position after a resync rebuild.

        The in-memory state was just replaced wholesale (from a primary
        snapshot at *seq*); checkpointing immediately makes that state
        the on-disk truth and discards the divergent WAL suffix via the
        rotation inside :meth:`checkpoint`.
        """
        self._seq = seq
        self.checkpoint()

    def close(self) -> None:
        """Flush and close the WAL (safe to call twice)."""
        if self._closed:
            return
        self._closed = True
        self._wal.close()
        if self._db is not None:
            for table in self._db.tables():
                table._journal = None
            self._db._durability = None
            self._db = None
