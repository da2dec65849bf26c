"""The primary's side of the ``repl.*`` protocol: the link ops and their fence.

A replication link is session-less — no snapshot pin, no policy context,
no admission accounting (a draining primary keeps feeding its replicas so
acknowledged commits reach safety before shutdown).  What every link op
does owe is the **fence**, which the server's pipeline runs before the
handler: the node must hold a replicated log at all, the link must have
introduced itself, and a peer announcing a newer epoch deposes this node.

:func:`register_link_ops` puts the five ops into a server's op table; the
server itself names none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ...errors import ProtocolError, ServerError
from ...obs import get_metrics
from ...storage.durability.fingerprint import database_fingerprints
from ...storage.durability.snapshot import snapshot_payload
from ..protocol import is_number

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..server import PCQEServer

__all__ = ["LINK_OP_PREFIX", "register_link_ops"]

#: Every op under this prefix belongs to a replication link, registered
#: or not: the first one turns a fresh connection into a link, and a
#: client session refuses them all.
LINK_OP_PREFIX = "repl."

_HANDSHAKE = LINK_OP_PREFIX + "handshake"


def register_link_ops(server: "PCQEServer") -> None:
    """Register every ``repl.*`` op, fenced, into *server*'s op table."""
    ops = _LinkOps(server)
    for name, handler in (
        (_HANDSHAKE, ops.handshake),
        (LINK_OP_PREFIX + "pull", ops.pull),
        (LINK_OP_PREFIX + "snapshot", ops.snapshot),
        (LINK_OP_PREFIX + "digest", ops.digest),
        (LINK_OP_PREFIX + "fingerprints", ops.fingerprints),
    ):
        server.register_op(
            name, handler, kind="replication", fence=ops.fence
        )


class _LinkOps:
    """Handlers take ``(peer, request)``: *peer* is the link's own state
    (``{"id": replica id or None}``), shared by its requests in order."""

    def __init__(self, server: "PCQEServer") -> None:
        self.server = server

    def fence(self, peer: dict[str, Any], request: dict[str, Any]) -> None:
        """Raise the refusal a link op has earned, if any.

        The epoch rule fences a deposed primary: a peer announcing a
        *higher* epoch proves a promotion happened behind our back, so
        this node must stop acting as primary for replication purposes.
        Lower peer epochs are fine — the reply carries ours and the
        replica adopts it.
        """
        server, op = self.server, request["op"]
        if server.replication is None:
            raise ServerError(
                "replication requires a durable database "
                "(this server is in-memory)"
            )
        if op != _HANDSHAKE and peer["id"] is None:
            raise ProtocolError(
                f"{op} before {_HANDSHAKE}: the handshake names the "
                f"replica and agrees on an epoch first"
            )
        peer_epoch = request.get("epoch")
        if peer_epoch is None:
            return
        if not is_number(peer_epoch, int) or peer_epoch < 0:
            raise ProtocolError(
                f"epoch must be a non-negative integer, got {peer_epoch!r}"
            )
        if peer_epoch > server.epoch:
            get_metrics().counter("server.fenced").inc()
            raise ServerError(
                f"this server's epoch {server.epoch} is stale: a peer is at "
                f"epoch {peer_epoch} (a newer primary has been promoted)",
                code="StaleEpochError",
                stale_epoch=server.epoch,
                current_epoch=peer_epoch,
            )

    def handshake(
        self, peer: dict[str, Any], request: dict[str, Any]
    ) -> dict[str, Any]:
        server = self.server
        replica = request.get("replica")
        if not isinstance(replica, str) or not replica:
            raise ProtocolError(
                f"{_HANDSHAKE} needs a non-empty 'replica' id"
            )
        peer["id"] = replica
        last_seq = request.get("last_seq")
        if is_number(last_seq, int) and last_seq >= 0:
            server.replication.record_ack(replica, last_seq)
        return {
            "ok": True,
            "epoch": server.epoch,
            "last_seq": server.replication.last_seq,
            "role": server.role,
        }

    def pull(
        self, peer: dict[str, Any], request: dict[str, Any]
    ) -> dict[str, Any]:
        server, replication = self.server, self.server.replication
        from_seq = request.get("from_seq")
        if not is_number(from_seq, int) or from_seq < 0:
            raise ProtocolError(
                f"{request['op']} needs a non-negative integer 'from_seq', "
                f"got {from_seq!r}"
            )
        max_frames = request.get("max_frames", 256)
        if not is_number(max_frames, int) or not 1 <= max_frames <= 1024:
            raise ProtocolError(
                f"max_frames must be an integer in [1, 1024], "
                f"got {max_frames!r}"
            )
        wait_ms = request.get("wait_ms", 0)
        if not is_number(wait_ms) or not 0 <= wait_ms <= 2000:
            raise ProtocolError(
                f"wait_ms must be a number in [0, 2000], got {wait_ms!r}"
            )
        applied = request.get("applied")
        if is_number(applied, int) and applied >= 0:
            replication.record_ack(peer["id"], applied)
        frames = replication.feed.frames_since(
            from_seq, max_frames, wait_ms / 1000.0
        )
        if frames is None:
            return {"ok": True, "epoch": server.epoch, "resync": True,
                    "last_seq": replication.last_seq}
        return {
            "ok": True,
            "epoch": server.epoch,
            "last_seq": replication.last_seq,
            "frames": [
                [seq, payload.decode("utf-8")] for seq, payload in frames
            ],
        }

    def snapshot(
        self, peer: dict[str, Any], request: dict[str, Any]
    ) -> dict[str, Any]:
        server = self.server
        # Pause commits so the payload and its wal_seq agree exactly —
        # the replica anchors its replication position at this seq.
        with server.mvcc.paused_commits():
            wal_seq = server.replication.last_seq
            payload = snapshot_payload(server._db, wal_seq)
        return {
            "ok": True,
            "epoch": server.epoch,
            "seq": wal_seq,
            "snapshot": payload,
        }

    def digest(
        self, peer: dict[str, Any], request: dict[str, Any]
    ) -> dict[str, Any]:
        server, replication = self.server, self.server.replication
        from_seq = request.get("from_seq")
        to_seq = request.get("to_seq")
        if not is_number(from_seq, int) or not is_number(to_seq, int):
            raise ProtocolError(
                f"{request['op']} needs integer 'from_seq' and 'to_seq'"
            )
        digests = replication.feed.digests(from_seq, to_seq)
        if digests is None:
            return {"ok": True, "epoch": server.epoch, "resync": True,
                    "last_seq": replication.last_seq}
        return {
            "ok": True,
            "epoch": server.epoch,
            "digests": [[seq, digest] for seq, digest in digests],
            "last_seq": replication.last_seq,
        }

    def fingerprints(
        self, peer: dict[str, Any], request: dict[str, Any]
    ) -> dict[str, Any]:
        server = self.server
        with server.mvcc.paused_commits():
            seq = server.replication.last_seq
            prints = database_fingerprints(server._db)
        return {
            "ok": True,
            "epoch": server.epoch,
            "seq": seq,
            "fingerprints": prints,
        }
