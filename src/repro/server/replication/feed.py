"""The primary's replication feed: committed WAL frames, in order.

A :class:`ReplicationFeed` is a bounded in-memory window over the tail
of the primary's WAL — every durable record (commit or imported frame)
lands here via a :class:`~repro.storage.durability.DurabilityManager`
commit listener, byte-identical to what was fsync'd.  Replicas pull
ranges with a long-poll; a replica that has fallen behind the window's
floor is told to resync from a snapshot instead.

:class:`PrimaryReplication` wraps the feed with acknowledgement
tracking: replicas piggyback their applied position on every pull, and
semi-synchronous commits (``min_sync_replicas``) block in
:meth:`wait_for_acks` until enough replicas confirm the commit's seq —
this is the mechanism behind the "zero acknowledged-commit loss on
failover" contract (docs/SERVING.md).
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque

from ...obs import get_metrics
from ...storage.durability.checksum import crc32c
from ...storage.durability.manager import DurabilityManager
from ...storage.durability.recovery import WAL_FILE
from ...storage.durability.wal import scan_wal

__all__ = ["ReplicationFeed", "PrimaryReplication", "iter_idempotency_markers"]


def iter_idempotency_markers(op: dict):
    """Yield every ``(client, key)`` dedup marker inside a decoded op.

    Markers are journaled inside the same WAL record as the write they
    guard (possibly nested in a batch), so walking a frame's op tree
    recovers the exactly-once map after a crash or on a replica.
    """
    kind = op.get("op")
    if kind == "idempotency":
        client, key = op.get("client"), op.get("key")
        if isinstance(client, str) and isinstance(key, str):
            yield client, key
    elif kind == "batch":
        for sub in op.get("ops", ()):
            if isinstance(sub, dict):
                yield from iter_idempotency_markers(sub)

#: Frames retained in memory; a replica further behind than this
#: bootstraps from a snapshot instead of replaying frames.
DEFAULT_CAPACITY = 4096

#: Payload bytes retained in memory, the window's other bound.  A frame is
#: ~200 B for a one-row DML but tens of KiB for a confidence write-back,
#: so a frame count alone lets the window (one per server, primary and
#: replica alike) grow to >100 MB under write-back traffic.
MAX_RETAINED_BYTES = 4 * 1024 * 1024


class ReplicationFeed:
    """Ordered window of (seq, payload) WAL frames, bounded by frame count
    and by retained payload bytes; the newest frame is always kept."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._capacity = capacity
        self._frames: "deque[tuple[int, bytes]]" = deque()
        self._bytes = 0
        #: Highest seq *below* the window: pulls from here are servable.
        self._base = 0
        self._lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)

    @property
    def base(self) -> int:
        return self._base

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._frames[-1][0] if self._frames else self._base

    def set_position(self, seq: int) -> None:
        """Anchor an empty feed at *seq* (frames start at ``seq + 1``)."""
        with self._lock:
            if not self._frames:
                self._base = seq

    def append(self, seq: int, payload: bytes) -> None:
        with self._arrival:
            if self._frames and seq <= self._frames[-1][0]:
                return  # duplicate notification; the log is append-only
            self._frames.append((seq, payload))
            self._bytes += len(payload)
            while len(self._frames) > self._capacity or (
                self._bytes > MAX_RETAINED_BYTES and len(self._frames) > 1
            ):
                dropped_seq, dropped = self._frames.popleft()
                self._base = dropped_seq
                self._bytes -= len(dropped)
            self._arrival.notify_all()

    def frames_since(
        self, from_seq: int, max_frames: int, wait_s: float = 0.0
    ) -> "list[tuple[int, bytes]] | None":
        """Frames with ``seq > from_seq`` (oldest first), at most
        *max_frames*.

        Returns ``None`` when *from_seq* has fallen below the window —
        the caller must resync from a snapshot.  Blocks up to *wait_s*
        when the replica is already caught up (long-poll).
        """
        with self._arrival:
            if from_seq < self._base:
                return None
            if wait_s > 0:
                self._arrival.wait_for(
                    lambda: (self._frames and self._frames[-1][0] > from_seq)
                    or from_seq < self._base,
                    timeout=wait_s,
                )
                if from_seq < self._base:
                    return None
            # Seqs strictly increase, so walk back from the newest frame and
            # stop at the puller's position: a caught-up replica costs O(1)
            # under the lock the commit path's append needs, not a scan of
            # the whole retained window.
            out: "list[tuple[int, bytes]]" = []
            for frame in reversed(self._frames):
                if frame[0] <= from_seq:
                    break
                out.append(frame)
            out.reverse()
            return out[:max_frames]

    def digests(
        self, from_seq: int, to_seq: int
    ) -> "list[tuple[int, int]] | None":
        """``(seq, CRC32C(payload))`` for frames in ``(from_seq, to_seq]``.

        ``None`` when the range dips below the window (resync instead).
        Used by replicas to detect divergence without shipping payloads.
        """
        with self._lock:
            if from_seq < self._base:
                return None
            return [
                (seq, crc32c(payload))
                for seq, payload in self._frames
                if from_seq < seq <= to_seq
            ]

    def snapshot_frames(self) -> "list[tuple[int, bytes]]":
        """A point-in-time copy of the retained frames (oldest first)."""
        with self._lock:
            return list(self._frames)

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)


class PrimaryReplication:
    """Feed + acknowledgement tracking, attached to one durable manager."""

    def __init__(
        self,
        manager: DurabilityManager,
        *,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self._manager = manager
        self.feed = ReplicationFeed(capacity)
        self._metrics = get_metrics()
        # Preload the frames already on disk so a replica that restarts
        # shortly after the primary does not need a full resync.
        wal_path = os.path.join(manager.data_dir, WAL_FILE)
        if os.path.exists(wal_path):
            for payload in scan_wal(wal_path).payloads:
                try:
                    seq = json.loads(payload.decode("utf-8")).get("seq")
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue  # recovery already vetted the log; be safe
                if not isinstance(seq, int):
                    continue
                if len(self.feed) == 0:
                    self.feed.set_position(seq - 1)
                self.feed.append(seq, payload)
        if len(self.feed) == 0:
            # Empty WAL (fresh dir or just checkpointed): everything up
            # to the manager's position is only available via snapshot.
            self.feed.set_position(manager.last_seq)
        self._positions: dict[str, int] = {}
        self._ack_lock = threading.Lock()
        self._acked = threading.Condition(self._ack_lock)
        manager.add_commit_listener(self._on_commit)

    def _on_commit(self, seq: int, payload: bytes) -> None:
        self.feed.append(seq, payload)
        self._metrics.gauge("repl.feed_frames").set(len(self.feed))

    def detach(self) -> None:
        self._manager.remove_commit_listener(self._on_commit)

    @property
    def last_seq(self) -> int:
        """Head of the durable log (the manager's, which a checkpoint
        never rewinds — not the in-memory window's)."""
        return self._manager.last_seq

    def journaled_keys(self):
        """Yield ``(client, key, seq)`` for every dedup marker in the
        retained frames — what a restarted primary rebuilds its durable
        exactly-once map from."""
        for seq, payload in self.feed.snapshot_frames():
            try:
                op = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                continue
            for client, key in iter_idempotency_markers(op):
                yield client, key, seq

    # -- acknowledgements --------------------------------------------------

    def record_ack(self, replica_id: str, seq: int) -> None:
        """A replica reported it has durably applied up through *seq*."""
        with self._acked:
            if seq > self._positions.get(replica_id, -1):
                self._positions[replica_id] = seq
                self._acked.notify_all()

    def wait_for_acks(self, seq: int, required: int, timeout: float) -> int:
        """Block until *required* replicas confirm *seq*; returns the
        count actually confirmed (may be short on timeout)."""
        with self._acked:
            self._acked.wait_for(
                lambda: sum(
                    1 for pos in self._positions.values() if pos >= seq
                ) >= required,
                timeout=timeout,
            )
            return sum(1 for pos in self._positions.values() if pos >= seq)
