"""Length-prefixed JSON framing for the PCQE socket protocol.

Every frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding one object.  The same framing is
used in both directions; requests carry an ``op`` field and responses an
``ok`` boolean:

.. code-block:: text

    → {"op": "hello", "user": "bob", "purpose": "investment"}
    ← {"ok": true, "session": 3, "seq": 17, "role": "Manager"}
    → {"op": "ask", "sql": "SELECT ...", "fraction": 1.0}
    ← {"ok": true, "status": "satisfied", "rows": [...], ...}
    → {"op": "bye"}
    ← {"ok": true, "closed": true}

Errors come back as ``{"ok": false, "error": {"type": ..., "message":
..., ...}}`` — ``type`` is the server-side error's ``code``, and a
``ServerError`` adds ``retryable`` and its fields (an ``AdmissionError``
carries the numbers behind the decision; docs/SERVING.md, Error codes).

Zero dependencies: :mod:`struct` + :mod:`json` over raw sockets or
asyncio streams.  Both async (server-side) and blocking (client-side)
frame helpers live here so the two ends cannot drift.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any

from ..errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_frame",
    "is_number",
    "read_frame",
    "recv_frame",
    "send_frame",
]

_LENGTH = struct.Struct(">I")

#: Upper bound on one frame; anything larger is a protocol violation
#: (large results should be paginated by the caller, not streamed as one
#: multi-gigabyte JSON document).
MAX_FRAME_BYTES = 32 * 1024 * 1024


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialize one message to its wire form (length prefix + JSON)."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def is_number(
    value: Any, kind: "type | tuple[type, ...]" = (int, float)
) -> bool:
    """Whether a decoded JSON value is a number of *kind*: ``true`` and
    ``false`` decode to ``bool``, an ``int`` to Python, but no count,
    seq, epoch or fraction."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _decode_body(body: bytes) -> dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must encode a JSON object, got {type(message).__name__}"
        )
    return message


def _check_length(length: int) -> int:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"announced frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


# -- asyncio side (server) -------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between frames
        raise ProtocolError(
            f"connection closed mid-header ({len(error.partial)}/4 bytes)"
        ) from None
    (length,) = _LENGTH.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection closed mid-frame "
            f"({len(error.partial)}/{length} bytes)"
        ) from None
    return _decode_body(body)


# -- blocking side (client) ------------------------------------------------


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            got = count - remaining
            if not chunks and got == 0:
                raise ProtocolError("connection closed by server")
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any]:
    """Blocking read of one frame from *sock*."""
    (length,) = _LENGTH.unpack(_recv_exactly(sock, _LENGTH.size))
    _check_length(length)
    return _decode_body(_recv_exactly(sock, length))


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Blocking write of one frame to *sock*."""
    sock.sendall(encode_frame(message))
