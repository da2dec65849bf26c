"""Pure log-reconciliation math: find where two WAL histories diverge.

A replica that crashed mid-apply (or accepted frames from a deposed
primary) may hold a WAL whose tail disagrees with the new primary's.
Reconciliation compares per-frame ``(seq, CRC32C(payload))`` digests over
the suspect range and answers one question: *where do the two logs first
disagree?*  A replica whose log diverges rebuilds from a snapshot and
re-pulls.

A pure function, no IO — the property tests drive it with arbitrary
divergent histories.
"""

from __future__ import annotations

__all__ = ["divergence_point"]


def divergence_point(
    local: "list[tuple[int, int]]", remote: "list[tuple[int, int]]"
) -> "int | None":
    """The first seq where the histories disagree, or ``None`` if the
    shared range matches (the shorter log is simply behind, not
    divergent)."""
    remote_by_seq = dict(remote)
    for seq, digest in sorted(local):
        other = remote_by_seq.get(seq)
        if other is not None and other != digest:
            return seq
    return None
