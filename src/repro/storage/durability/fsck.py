"""Offline integrity check (``repro fsck``): verify, never repair.

``fsck_data_dir`` is recovery's own readers run dry: the snapshot goes
through :func:`~repro.storage.durability.snapshot.read_snapshot`, the log
through :func:`~repro.storage.durability.wal.read_log` and every record
through :func:`~repro.storage.durability.codec.decode_record` — the
functions ``recover`` replays from — so the two cannot disagree about the
same bytes.  What recovery raises on, fsck reports with its byte offset
and the last intact record's seq, and it adds the one check recovery does
not make, sequence-number continuity.  A torn tail (incomplete final
record) is *reported*, never truncated: operators inspect the damage
first.

The same checks back the replica scrubber's local pass
(:mod:`repro.server.replication.scrub`), which is what turns silent
bit rot into a quarantine + resync instead of a served wrong answer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ...errors import CorruptLogError
from .codec import decode_record
from .recovery import SNAPSHOT_FILE, WAL_FILE
from .snapshot import read_snapshot
from .wal import Damage, read_log

__all__ = ["FsckIssue", "FsckReport", "fsck_data_dir"]


@dataclass(frozen=True)
class FsckIssue:
    """One integrity finding."""

    file: str  #: which file ("wal.log" or "snapshot.snap")
    kind: str  #: machine-readable issue class
    offset: int  #: byte offset of the damage
    seq: int  #: last intact WAL seq before the damage (0 if unknown)
    detail: str

    def format(self) -> str:
        where = f"{self.file} @ byte {self.offset}"
        if self.seq:
            where += f" (after frame seq {self.seq})"
        return f"  {self.kind}: {where}: {self.detail}"


@dataclass
class FsckReport:
    """Outcome of :func:`fsck_data_dir` (surfaced by ``repro fsck``)."""

    data_dir: str
    snapshot_present: bool = False
    snapshot_bytes: int = 0
    snapshot_wal_seq: int = 0
    wal_present: bool = False
    wal_bytes: int = 0
    frames_verified: int = 0
    last_seq: int = 0
    issues: list[FsckIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.issues

    def format(self) -> str:
        lines = [f"fsck {self.data_dir}"]
        if self.snapshot_present:
            lines.append(
                f"  snapshot: {self.snapshot_bytes} bytes, "
                f"wal_seq {self.snapshot_wal_seq}"
            )
        else:
            lines.append("  snapshot: none")
        if self.wal_present:
            lines.append(
                f"  wal: {self.wal_bytes} bytes, "
                f"{self.frames_verified} frame(s) verified, "
                f"last seq {self.last_seq}"
            )
        else:
            lines.append("  wal: none")
        if self.clean:
            lines.append("  clean: all checksums verified")
        else:
            lines.append(f"  ISSUES ({len(self.issues)}):")
            lines.extend(issue.format() for issue in self.issues)
        return "\n".join(lines)


def _check_snapshot(path: str, report: FsckReport) -> None:
    report.snapshot_present = True
    report.snapshot_bytes, found = read_snapshot(path)
    if isinstance(found, Damage):
        report.issues.append(FsckIssue(
            os.path.basename(path), f"snapshot-{found.kind}", found.offset, 0,
            found.reason,
        ))
    else:
        report.snapshot_wal_seq = found.get("wal_seq", 0)


def _check_wal(path: str, report: FsckReport) -> None:
    report.wal_present = True
    scan = read_log(path)
    report.wal_bytes = scan.file_length
    name = os.path.basename(path)
    for offset, payload in zip(scan.offsets, scan.payloads):
        try:
            seq, _op = decode_record(payload)
        except CorruptLogError as error:
            report.issues.append(FsckIssue(
                name, "wal-bad-record", offset, report.last_seq, str(error),
            ))
        else:
            if report.last_seq and seq != report.last_seq + 1:
                report.issues.append(FsckIssue(
                    name, "wal-seq-gap", offset, report.last_seq,
                    f"record seq {seq} follows {report.last_seq}",
                ))
            report.last_seq = seq
        report.frames_verified += 1
    if scan.damage is not None:
        report.issues.append(FsckIssue(
            name, f"wal-{scan.damage.kind}", scan.damage.offset,
            report.last_seq, scan.damage.reason,
        ))


def fsck_data_dir(data_dir: str) -> FsckReport:
    """Verify every checksum under *data_dir* without modifying anything."""
    report = FsckReport(data_dir=data_dir)
    snapshot_path = os.path.join(data_dir, SNAPSHOT_FILE)
    if os.path.exists(snapshot_path):
        _check_snapshot(snapshot_path, report)
    wal_path = os.path.join(data_dir, WAL_FILE)
    if os.path.exists(wal_path):
        _check_wal(wal_path, report)
    if report.last_seq == 0:
        report.last_seq = report.snapshot_wal_seq
    return report
