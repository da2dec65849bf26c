"""Wire framing: round trips, limits, torn frames, bad payloads."""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest

from repro.errors import ProtocolError
from repro.server import encode_frame
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    read_frame,
    recv_frame,
    send_frame,
)


def test_encode_frame_is_length_prefixed_json():
    frame = encode_frame({"op": "hello", "n": 1})
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert frame[4:].decode("utf-8") == '{"op":"hello","n":1}'


def test_blocking_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        message = {"op": "ask", "sql": "SELECT 1", "values": [1, 2.5, None, "x"]}
        send_frame(left, message)
        send_frame(left, {"op": "bye"})
        assert recv_frame(right) == message
        assert recv_frame(right) == {"op": "bye"}
    finally:
        left.close()
        right.close()


def test_oversize_frame_is_rejected_before_send():
    with pytest.raises(ProtocolError):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_announced_oversize_length_is_rejected_on_read():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"{}")
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_non_json_and_non_object_frames_are_rejected():
    for body in (b"not json at all", b'["a", "list"]', b"\xff\xfe"):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError):
                recv_frame(right)
        finally:
            left.close()
            right.close()


def test_closed_connection_raises_protocol_error():
    left, right = socket.socketpair()
    left.close()
    try:
        with pytest.raises(ProtocolError, match="closed"):
            recv_frame(right)
    finally:
        right.close()


def test_async_read_frame_round_trip_and_clean_eof():
    async def scenario():
        server_done = asyncio.Event()
        received = []

        async def handle(reader, writer):
            received.append(await read_frame(reader))
            writer.write(encode_frame({"ok": True}))
            await writer.drain()
            received.append(await read_frame(reader))  # None on clean EOF
            writer.close()
            server_done.set()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame({"op": "ping"}))
        await writer.drain()
        reply = await read_frame(reader)
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(server_done.wait(), timeout=5)
        server.close()
        await server.wait_closed()
        return received, reply

    received, reply = asyncio.run(scenario())
    assert received == [{"op": "ping"}, None]
    assert reply == {"ok": True}


def test_async_read_frame_torn_header_raises():
    async def scenario():
        outcome = []

        async def handle(reader, writer):
            try:
                await read_frame(reader)
            except ProtocolError as error:
                outcome.append(str(error))
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        _reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"\x00\x00")  # half a length prefix, then hang up
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        await asyncio.sleep(0.05)
        return outcome

    outcome = asyncio.run(scenario())
    assert outcome and "mid-header" in outcome[0]
