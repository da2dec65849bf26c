"""The online integrity scrubber: trust, but re-verify.

A replica that applies frames correctly can still rot: disk corruption
under the WAL or snapshot, or logical divergence from a bug or a frame
accepted from a deposed primary.  The :class:`Scrubber` re-checks both,
on a timer or on demand:

1. **Physical**: re-run the offline checker
   (:func:`~repro.storage.durability.fsck.fsck_data_dir`) over the
   replica's own ``data_dir`` — every WAL frame CRC, the snapshot
   checksum.  Any issue schedules a resync (the primary's state is the
   recovery source; nothing is truncated locally).
2. **Logical**: fetch per-table fingerprints from the primary at a pinned
   seq, wait until the replica has applied that same seq, and compare
   against fingerprints of the live tables.  Divergent tables are
   **quarantined** — sessions touching them get the retryable
   ``QuarantinedTableError`` instead of silently wrong rows — and a
   resync is scheduled, which rebuilds the state and lifts the
   quarantine.
"""

from __future__ import annotations

import threading
from contextlib import closing
from typing import TYPE_CHECKING, Any

from ...errors import ProtocolError, ReproError, ServerError
from ...obs import get_metrics
from ...storage.durability.fingerprint import database_fingerprints
from ...storage.durability.fsck import fsck_data_dir

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .replica import Replica

__all__ = ["Scrubber"]


class Scrubber:
    """Periodic (or on-demand) integrity checks for one replica."""

    def __init__(self, replica: "Replica", *, interval: float = 5.0) -> None:
        self.replica = replica
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Scrubber":
        self._thread = threading.Thread(
            target=self._run,
            name=f"{self.replica.replica_id}-scrub",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if self.replica.promoted:
                return  # a primary is the fingerprint authority now
            try:
                self.run_once()
            except (OSError, ReproError, ProtocolError):
                get_metrics().counter("repl.scrub.errors").inc()

    # -- one pass ----------------------------------------------------------

    def run_once(self) -> dict[str, Any]:
        """One full scrub pass; returns a small structured report."""
        metrics = get_metrics()
        metrics.counter("repl.scrub.runs").inc()
        report: dict[str, Any] = {
            "corruption": [],
            "divergent": [],
            "checked": False,
        }
        replica = self.replica
        if replica.data_dir is not None:
            fsck = fsck_data_dir(replica.data_dir)
            if not fsck.clean:
                metrics.counter("repl.scrub.corruption").inc()
                report["corruption"] = [
                    issue.format() for issue in fsck.issues
                ]
                replica.request_resync()
                return report  # physical damage first; skip the compare
        divergent = self._fingerprint_check()
        if divergent is None:
            metrics.counter("repl.scrub.skipped").inc()
            return report
        report["checked"] = True
        report["divergent"] = divergent
        if divergent:
            metrics.counter("repl.scrub.divergences").inc(len(divergent))
            replica.server.quarantine.update(divergent)
            replica.request_resync()
        return report

    def _fingerprint_check(self) -> "list[str] | None":
        """Compare live table fingerprints against the primary's at one
        pinned seq.  ``None`` means the check could not be anchored (no
        reachable primary, or replication did not reach the seq in
        time) — skipped, not passed."""
        replica = self.replica
        try:
            with closing(replica.open_link()) as link:
                link.exchange(
                    {
                        "op": "repl.handshake",
                        "replica": f"{replica.replica_id}-scrub",
                        "epoch": replica.epoch,
                    }
                )
                reply = link.exchange(
                    {"op": "repl.fingerprints", "epoch": replica.epoch}
                )
        except (OSError, ServerError):
            return None
        seq = reply.get("seq")
        theirs = reply.get("fingerprints")
        if not isinstance(seq, int) or not isinstance(theirs, dict):
            return None
        if not replica.wait_for_position(seq, timeout=2.0):
            return None
        # Pin the comparison: no replicated commit may land between the
        # position check and the fingerprint walk.
        with replica.server.mvcc.paused_commits():
            if replica.position != seq:
                return None  # the primary moved on; compare next pass
            ours = database_fingerprints(replica._db)
        divergent = sorted(
            name
            for name in set(ours) | set(theirs)
            if ours.get(name) != theirs.get(name)
        )
        return divergent
