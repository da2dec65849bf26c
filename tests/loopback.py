"""A socket whose peer is :meth:`PCQEServer.handle`, on the caller's thread.

:class:`LoopbackSocket` has the four socket methods the blocking clients
use (``sendall`` / ``recv`` / ``close`` / ``settimeout``).  Bytes sent
are cut into frames and decoded by :mod:`repro.server.protocol`'s own
codec; each frame goes through ``server.handle`` and its reply is
encoded back for ``recv``.  A frame that does not decode is answered as
the socket adapter answers it — an unstamped error reply, then the hang
up.  No event loop, no pool, no thread: the server need not be started.
"""

from __future__ import annotations

import io
import struct
from types import SimpleNamespace
from typing import Any

from repro.errors import ProtocolError
from repro.server import PCQEServer, encode_frame, recv_frame
from repro.server.protocol import MAX_FRAME_BYTES
from repro.server.server import _Connection, _error_reply

_HEADER = struct.Struct(">I")


class LoopbackSocket:
    """One in-memory connection to *server*."""

    def __init__(self, server: PCQEServer) -> None:
        self.server = server
        self.conn = _Connection()
        self.inbound = bytearray()  # sent, not yet a whole frame
        self.outbound = bytearray()  # replied, not yet received
        self.open = True

    def settimeout(self, timeout: "float | None") -> None:
        pass  # every reply is ready before sendall returns

    def sendall(self, data: bytes) -> None:
        self.inbound += data
        while self.open and len(self.inbound) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(self.inbound)
            end = _HEADER.size + length
            if length <= MAX_FRAME_BYTES and len(self.inbound) < end:
                return  # the rest of the frame is still to come
            source = SimpleNamespace(recv=io.BytesIO(self.inbound).read)
            del self.inbound[:end]
            try:
                frame = recv_frame(source)
            except ProtocolError as error:
                self._reply(_error_reply(error), True)
            else:
                self._reply(*self.server.handle(self.conn, frame))

    def _reply(self, reply: "dict[str, Any]", close: bool) -> None:
        self.outbound += encode_frame(reply)
        if close:
            self.close()

    def recv(self, count: int) -> bytes:
        """Up to *count* reply bytes; ``b""`` (end of stream) once the
        server has hung up and everything it sent has been read."""
        if not self.outbound and self.open:
            raise BlockingIOError("no reply is pending on a loopback socket")
        chunk = bytes(self.outbound[:count])
        del self.outbound[:count]
        return chunk

    def close(self) -> None:
        if self.open:
            self.open = False
            self.server.hang_up(self.conn)
