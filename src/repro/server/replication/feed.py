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

import threading
from collections import deque

from ...obs import get_metrics
from ...storage.durability.checksum import crc32c
from ...storage.durability.manager import DurabilityManager
from ...storage.durability.recovery import TAIL_BYTES, TAIL_FRAMES

__all__ = ["ReplicationFeed", "PrimaryReplication"]

#: Frames retained in memory; a replica further behind than this
#: bootstraps from a snapshot instead of replaying frames.
DEFAULT_CAPACITY = TAIL_FRAMES

#: Payload bytes retained in memory, the window's other bound.  A frame is
#: ~200 B for a one-row DML but tens of KiB for a confidence write-back,
#: so a frame count alone lets the window (one per server, primary and
#: replica alike) grow to >100 MB under write-back traffic.
MAX_RETAINED_BYTES = TAIL_BYTES


class ReplicationFeed:
    """Ordered window of (seq, payload) WAL frames, bounded by frame count
    and by retained payload bytes; the newest frame is always kept.  Each
    frame keeps the payload checksum its log's framing computed, so a
    digest is looked up, never recomputed."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._capacity = capacity
        self._frames: "deque[tuple[int, bytes, int]]" = deque()
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

    def append(
        self, seq: int, payload: bytes, digest: "int | None" = None
    ) -> None:
        """Add the frame; *digest* is its CRC32C when the caller's log
        already computed it."""
        if digest is None:
            digest = crc32c(payload)
        with self._arrival:
            if self._frames and seq <= self._frames[-1][0]:
                return  # duplicate notification; the log is append-only
            self._frames.append((seq, payload, digest))
            self._bytes += len(payload)
            while len(self._frames) > self._capacity or (
                self._bytes > MAX_RETAINED_BYTES and len(self._frames) > 1
            ):
                dropped_seq, dropped, _digest = self._frames.popleft()
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
                out.append(frame[:2])
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
                (seq, digest)
                for seq, _payload, digest in self._frames
                if from_seq < seq <= to_seq
            ]

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
        # Start from the frames already on disk — the ones recovery read —
        # so a replica that restarts shortly after the primary does not
        # need a full resync.  With an empty WAL (fresh dir or just
        # checkpointed) everything up to the manager's position is only
        # available via snapshot.
        tail = manager.take_tail()
        self.feed.set_position(tail[0][0] - 1 if tail else manager.last_seq)
        for frame in tail:
            self.feed.append(*frame)
        self._positions: dict[str, int] = {}
        self._ack_lock = threading.Lock()
        self._acked = threading.Condition(self._ack_lock)
        manager.add_commit_listener(self._on_commit)

    def _on_commit(self, seq: int, payload: bytes) -> None:
        self.feed.append(seq, payload, self._manager.last_digest)
        self._metrics.gauge("repl.feed_frames").set(len(self.feed))

    def detach(self) -> None:
        self._manager.remove_commit_listener(self._on_commit)

    @property
    def last_seq(self) -> int:
        """Head of the durable log (the manager's, which a checkpoint
        never rewinds — not the in-memory window's)."""
        return self._manager.last_seq

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
