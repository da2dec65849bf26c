"""A pull-based replica: applies the primary's WAL, serves snapshot reads.

One :class:`Replica` owns three things:

* its **database** (durable under its own ``data_dir``, or in-memory for
  a read-scaling cache) kept in sync by a daemon pull thread that
  streams committed WAL frames from the primary and applies them through
  the same recovery path a crash restart uses — import the frame into
  the local WAL first, then apply the op under suspended journaling, then
  publish the MVCC generation *at the primary's seq*;
* a read-only :class:`~repro.server.server.PCQEServer` so clients run
  ``ask``/``sql`` sessions against pinned snapshots tagged with the
  replication position (writes answer ``NotPrimaryError`` with
  ``rotate: true``);
* the **failover machinery**: a persisted epoch adopted from (and
  offered to) every peer, endpoint rotation when the current primary
  dies, automatic self-promotion after ``auto_promote_after`` seconds
  without any live primary, and digest-based divergence detection that
  truncates a forked log back to the common prefix by resyncing from a
  primary snapshot.

The pull protocol is the ordinary length-prefixed JSON framing on the
same port clients use; ``repl.*`` ops are session-less (the primary's
side is :mod:`~repro.server.replication.ops`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Any, Iterable

from ...errors import ReproError, ServerError
from ...obs import TIMING_BUCKETS, get_metrics
from ...policy import PolicyStore
from ...storage.database import Database
from ...storage.durability.checksum import crc32c
from ...storage.durability.codec import decode_record
from ...storage.durability.recovery import apply_op
from ...storage.durability.snapshot import populate_database
from ..client import WireLink
from ..faults import NetworkFaultInjector
from ..protocol import encode_frame
from ..server import PCQEServer
from .epoch import load_epoch, store_epoch
from .reconcile import divergence_point

__all__ = ["Replica"]

#: Frames of (seq, digest) history kept for divergence checks.
_DIGEST_WINDOW = 512


class _ResyncNeeded(Exception):
    """Internal: the incremental stream cannot continue; bootstrap from
    a primary snapshot instead (gap, divergence, or apply failure)."""


_replica_ids = iter(range(1, 1 << 30))


class Replica:
    """A read-only node pulling the replicated log from a primary fleet."""

    def __init__(
        self,
        endpoints: "Iterable[str | tuple[str, int]]",
        policies: PolicyStore,
        *,
        data_dir: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        replica_id: str | None = None,
        pull_interval: float = 0.05,
        wait_ms: int = 200,
        max_frames: int = 256,
        auto_promote_after: float | None = None,
        faults: NetworkFaultInjector | None = None,
        connect_timeout: float = 5.0,
        **server_kwargs: Any,
    ) -> None:
        #: The pull loop's link to the primary fleet.  ``endpoints`` is
        #: its (extendable) list: peers learned later are appended.
        self._link = WireLink(endpoints, timeout=connect_timeout)
        self.endpoints = self._link.endpoints
        self.data_dir = data_dir
        self.replica_id = replica_id or f"replica-{next(_replica_ids)}"
        self.pull_interval = pull_interval
        self.wait_ms = wait_ms
        self.max_frames = max_frames
        self.auto_promote_after = auto_promote_after
        self.faults = faults
        if data_dir is not None:
            self._db = Database.open(data_dir, name=self.replica_id)
            self.epoch = load_epoch(data_dir)
        else:
            self._db = Database(self.replica_id)
            self.epoch = 1
        self._manager = self._db._durability
        self.server = PCQEServer(
            self._db,
            policies,
            host,
            port,
            read_only=True,
            epoch=self.epoch,
            **server_kwargs,
        )
        #: Highest primary WAL seq durably applied here.  Distinct from
        #: the MVCC generation counter (which never rewinds): a resync
        #: may move the position backwards to a snapshot's seq.
        self._position = self._manager.last_seq if self._manager else 0
        self._position_cv = threading.Condition()
        self._recent_digests: "deque[tuple[int, int]]" = deque(
            maxlen=_DIGEST_WINDOW
        )
        #: ``now`` of the last step that reached a primary (None: no step yet).
        self._last_contact: float | None = None
        self._force_resync = False
        self._stop = threading.Event()
        self._promote_lock = threading.Lock()
        self.promoted = False
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Replica":
        self.server.start()
        self._thread = threading.Thread(
            target=self._run, name=f"{self.replica_id}-pull", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._link.close()
        self.server.stop()
        self._db.close()

    def __enter__(self) -> "Replica":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def position(self) -> int:
        """Highest primary seq applied (and durable, when on disk)."""
        return self._position

    @property
    def address(self) -> str:
        return self.server.address

    def wait_for_position(self, seq: int, timeout: float = 5.0) -> bool:
        """Block until the replica has applied *seq* (or timeout)."""
        with self._position_cv:
            return self._position_cv.wait_for(
                lambda: self._position >= seq, timeout=timeout
            )

    def request_resync(self) -> None:
        """Ask the pull loop to rebuild from a primary snapshot (used by
        the scrubber when it finds corruption or divergence)."""
        self._force_resync = True

    # -- failover ----------------------------------------------------------

    def promote(self, epoch: int | None = None) -> int:
        """Stop pulling and become the writable primary (idempotent).

        The new epoch must exceed every epoch this node has seen, so the
        deposed primary's frames are fenced off fleet-wide.
        """
        with self._promote_lock:
            if self.promoted:
                return self.epoch
            new_epoch = self.epoch + 1 if epoch is None else epoch
            if new_epoch <= self.epoch:
                raise ServerError(
                    f"promotion epoch {new_epoch} must exceed the current "
                    f"epoch {self.epoch}"
                )
            self.promoted = True
        # Retire the pull thread BEFORE accepting writes: a still-running
        # pull could otherwise fetch this node's own post-promotion
        # frames back from a follower's feed (same epoch — fencing can't
        # catch it) and "resync" the new primary from its own replica.
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)
        with self._promote_lock:
            self.epoch = new_epoch
            if self.data_dir is not None:
                store_epoch(self.data_dir, new_epoch)
            self.server.promote_to_primary(new_epoch)
            get_metrics().counter("repl.promotions").inc()
            return new_epoch

    # -- the pull loop -----------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set() and not self.promoted:
            if not self.step(time.monotonic()):
                self._stop.wait(self.pull_interval)
        self._link.close()

    def step(self, now: float) -> bool:
        """One turn of the pull loop, at *now* (seconds, any origin).

        Connects and handshakes when there is no link, honours
        :meth:`request_resync`, pulls once and applies what came.  Returns
        True while the link stays up: step again at once.  False when the
        step closed it — an error rotated the endpoint, or a resync ran —
        after the silence check against *now*: wait ``pull_interval``.
        """
        link = self._link
        if self._last_contact is None or link.sock is not None:
            # The first step starts the silence clock; an open link means
            # the step before ended in contact.
            self._last_contact = now
        try:
            try:
                fresh = link.sock is None
                if fresh:
                    # Never pull from ourselves post-promotion.
                    link.connect(avoid=self._own_address())
                    handshake = self._request({
                        "op": "repl.handshake",
                        "replica": self.replica_id,
                        "epoch": self.epoch,
                        "last_seq": self._position,
                    })
                    self._last_contact = now
                if self._force_resync:
                    self._resync()
                    self._force_resync = False
                elif fresh:
                    self._check_divergence(handshake)
                self._pull()
                return True
            except _ResyncNeeded:
                self._resync()
        except Exception as error:
            # Unreachable, behind a newer reign (StaleEpochError), or —
            # counted — a defect: try the next endpoint.
            if not isinstance(error, (OSError, ReproError)):
                get_metrics().counter("repl.pull_errors").inc()
            link.rotate()
            get_metrics().counter("repl.endpoint_rotations").inc()
        link.close()
        self._maybe_auto_promote(now)
        return False

    def _maybe_auto_promote(self, now: float) -> None:
        if self.auto_promote_after is None or self.promoted:
            return
        if self._stop.is_set():  # retiring, not silent
            return
        if now - self._last_contact >= self.auto_promote_after:
            get_metrics().counter("repl.auto_promotions").inc()
            self.promote()

    def _own_address(self) -> "tuple[str, int] | None":
        try:
            return (self.server.host, self.server.port)
        except ServerError:
            return None

    def open_link(self) -> WireLink:
        """A second, connected link to the endpoint the pull loop is on
        (the scrubber's: it must not share the pull loop's socket)."""
        link = WireLink(
            self.endpoints, timeout=self._link.timeout, index=self._link.index
        )
        link.connect(avoid=self._own_address())
        return link

    def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        link = self._link
        if self.faults is not None and message.get("op") == "repl.pull":
            action = self.faults.decide(
                "repl.pull", len(encode_frame(message))
            )
            if action is not None:
                get_metrics().counter("repl.faults.injected").inc()
                if action.mode == "disconnect":
                    link.close()
                    raise OSError("injected: replication link dropped")
                if action.mode == "torn_frame":
                    link.sock.sendall(encode_frame(message)[: action.cut])
                    link.close()
                    raise OSError("injected: torn replication frame")
                if action.mode == "delay":
                    time.sleep(action.delay_s)
        # An ``ok: false`` reply raises — including a peer that fenced
        # itself on seeing our higher epoch (StaleEpochError): treat it
        # as a dead endpoint.
        reply = link.exchange(message)
        self._adopt_epoch(reply.get("epoch"))
        return reply

    def _adopt_epoch(self, peer_epoch: Any) -> None:
        if not isinstance(peer_epoch, int):
            return
        if peer_epoch < self.epoch:
            # A deposed primary is still talking: refuse its stream.
            get_metrics().counter("repl.stale_frames_rejected").inc()
            raise ServerError(
                f"peer epoch {peer_epoch} is behind ours ({self.epoch}); "
                f"rejecting its frames",
                code="StaleEpochError",
                stale_epoch=peer_epoch,
                current_epoch=self.epoch,
            )
        if peer_epoch > self.epoch:
            self.epoch = peer_epoch
            if self.data_dir is not None:
                store_epoch(self.data_dir, peer_epoch)
            self.server.set_epoch(peer_epoch)

    def _check_divergence(self, handshake: dict) -> None:
        """Compare recent frame digests with the primary's; a forked tail
        (we applied frames the new reign never committed) is truncated to
        the common prefix via a snapshot resync."""
        local = sorted(self._recent_digests)
        primary_last = handshake.get("last_seq")
        if isinstance(primary_last, int) and primary_last < self._position:
            # We are *ahead* of the primary: those frames were never
            # acknowledged by this reign and must be rolled back.
            get_metrics().counter("repl.divergences").inc()
            raise _ResyncNeeded()
        if not local:
            return
        reply = self._request({
            "op": "repl.digest",
            "from_seq": local[0][0] - 1,
            "to_seq": local[-1][0],
            "epoch": self.epoch,
        })
        if reply.get("resync"):
            raise _ResyncNeeded()
        remote = [
            (int(seq), int(digest))
            for seq, digest in reply.get("digests", [])
        ]
        if divergence_point(local, remote) is not None:
            get_metrics().counter("repl.divergences").inc()
            raise _ResyncNeeded()

    def _pull(self) -> None:
        metrics = get_metrics()
        reply = self._request({
            "op": "repl.pull",
            "from_seq": self._position,
            "max_frames": self.max_frames,
            "wait_ms": self.wait_ms,
            "applied": self._position,
            "epoch": self.epoch,
        })
        if reply.get("resync"):
            raise _ResyncNeeded()
        for entry in reply.get("frames", []):
            seq, text = int(entry[0]), entry[1]
            payload = text.encode("utf-8")
            if self.faults is not None:
                action = self.faults.decide("repl.frame", len(payload))
                if action is not None and action.mode == "dup":
                    metrics.counter("repl.faults.injected").inc()
                    self._apply_frame(seq, payload)
            self._apply_frame(seq, payload)
        last_seq = reply.get("last_seq")
        if isinstance(last_seq, int):
            metrics.gauge("repl.lag_frames").set(
                max(0, last_seq - self._position)
            )

    def _replaying(self):
        """Journaling off: what is replayed is already in the local log."""
        if self._manager is None:
            return nullcontext()
        return self._manager.suspended()

    def _apply_frame(self, seq: int, payload: bytes) -> None:
        metrics = get_metrics()
        if seq <= self._position:
            # Exactly-once: re-delivered frames (duplicated by the link
            # or re-pulled after a torn reply) are recognized by seq and
            # dropped before touching the WAL.
            metrics.counter("repl.duplicate_frames").inc()
            return
        if seq != self._position + 1:
            raise _ResyncNeeded()  # gap in the stream
        if self.faults is not None:
            action = self.faults.decide("repl.apply", len(payload))
            if action is not None and action.mode == "delay":
                metrics.counter("repl.faults.injected").inc()
                time.sleep(action.delay_s)
        started = time.perf_counter()
        try:
            _seq, op = decode_record(payload)
            # WAL-first, exactly like a local commit: the frame is
            # durable before its effects are visible, so a crash between
            # the two replays it on restart.  Framing the payload is the
            # one checksum pass over these bytes on this node: the
            # divergence window below keeps that CRC32C.
            if self._manager is not None:
                digest = self._manager.import_frame(payload, seq)
            else:
                digest = crc32c(payload)

            def mutate(db):
                with self._replaying():
                    apply_op(db, op, seq)
                # Advance the position while still under the commit lock
                # so paused_commits() observers (the scrubber's pinned
                # fingerprint compare) see state and position atomically.
                with self._position_cv:
                    self._position = seq
                    self._position_cv.notify_all()

            self.server.mvcc.commit_replicated(seq, mutate)
        except _ResyncNeeded:
            raise
        except (ReproError, ValueError, KeyError) as error:
            metrics.counter("repl.apply_errors").inc()
            raise _ResyncNeeded() from error
        self._recent_digests.append((seq, digest))
        metrics.counter("repl.frames_applied").inc()
        metrics.histogram("repl.apply_seconds", TIMING_BUCKETS).observe(
            time.perf_counter() - started
        )
        if self._manager is not None:
            self._manager.maybe_checkpoint()

    def _resync(self) -> None:
        """Bootstrap (or truncate-and-rebuild) from a primary snapshot.

        Replaces the whole logical state under one MVCC publish, realigns
        the local WAL to the snapshot's seq (discarding any divergent
        suffix via the checkpoint's rotation), and lifts every scrubber
        quarantine — the rebuilt tables are byte-fresh from the primary.
        """
        if self.promoted or self._stop.is_set():
            # Never rebuild a retiring or promoted node from a peer.
            return
        metrics = get_metrics()
        reply = self._request({"op": "repl.snapshot", "epoch": self.epoch})
        snap_seq = reply["seq"]
        payload = reply["snapshot"]

        def mutate(db):
            with self._replaying():
                for name in list(db.view_names()):
                    db.drop_view(name)
                for name in list(db.table_names()):
                    db.drop_table(name)
                # A key a divergent frame carried is rolled back with it.
                db.idempotency_keys.clear()
                populate_database(db, payload)
            with self._position_cv:
                self._position = snap_seq
                self._position_cv.notify_all()

        self.server.mvcc.commit_replicated(snap_seq, mutate)
        if self._manager is not None:
            self._manager.reset_to(snap_seq)
        self._recent_digests.clear()
        self.server.quarantine.clear()
        metrics.counter("repl.resyncs").inc()
        metrics.gauge("repl.lag_frames").set(0)
