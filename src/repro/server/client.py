"""The client side of the wire: one link, two blocking clients.

:class:`WireLink` is the one place a frame is sent and its reply read
(connect to one of N endpoints, send, read until the matching ``rid``,
raise :class:`ServerReplyError` on ``ok: false``).  It carries the
:class:`ServerClient` of the ``connect`` CLI command, the tests and the
serve/chaos benchmarks, the :class:`RetryingClient` of the end-to-end
benchmark and the replication smokes, and a replica's pull loop and
scrubber.  One :class:`ServerClient` is one session: the constructor
performs the ``hello`` handshake, every call maps to one request frame,
and :meth:`~ServerClient.close` says ``bye`` and closes the socket.

>>> with ServerClient("127.0.0.1", 7433, user="bob",
...                   purpose="investment") as client:
...     reply = client.ask("SELECT Company FROM Proposal", fraction=1.0)
...     reply["status"], reply["rows"]

Replies are the server's JSON objects verbatim.  A transport failure
raises :class:`~repro.errors.ProtocolError`; an application error reply
(``ok: false``) raises :class:`ServerReplyError` carrying the structured
error payload, so callers can branch on ``error["type"]`` (e.g.
``"AdmissionError"``) without string matching.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from typing import Any, Callable, Iterable

from ..errors import ProtocolError, ServerError
from ..obs import get_metrics
from ..storage.durability.retry import RetryPolicy
from .faults import FaultySocket, NetworkFaultInjector
from .protocol import recv_frame, send_frame

__all__ = [
    "WireLink",
    "ServerClient",
    "ServerReplyError",
    "RetryingClient",
]


class ServerReplyError(ServerError):
    """The server answered ``ok: false``; :attr:`error` has the payload."""

    def __init__(self, error: dict[str, Any]) -> None:
        super().__init__(
            f"{error.get('type', 'ServerError')}: "
            f"{error.get('message', '(no message)')}"
        )
        self.error = error

    @property
    def type(self) -> str:
        return str(self.error.get("type", "ServerError"))


def _parse_endpoint(endpoint: "str | tuple[str, int]") -> tuple[str, int]:
    if isinstance(endpoint, tuple):
        return endpoint[0], int(endpoint[1])
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be 'host:port', got {endpoint!r}")
    return host, int(port)


class WireLink:
    """A blocking connection to one of N endpoints.

    :attr:`index` names the endpoint in use (or to try first);
    :meth:`connect` advances it past unreachable endpoints and
    :meth:`rotate` past one that answered but will not serve.
    :attr:`endpoints` is a plain list the owner may extend.  *faults*
    wraps the socket in a :class:`~repro.server.faults.FaultySocket`.
    """

    def __init__(
        self,
        endpoints: "Iterable[str | tuple[str, int]]",
        *,
        timeout: float | None,
        faults: NetworkFaultInjector | None = None,
        index: int = 0,
    ) -> None:
        self.endpoints = [_parse_endpoint(e) for e in endpoints]
        if not self.endpoints:
            raise ValueError("a link needs at least one endpoint")
        self.index = index
        self.timeout = timeout
        self.faults = faults
        self.sock: Any = None

    def connect(self, avoid: "tuple[str, int] | None" = None) -> None:
        """Open a socket to the current endpoint, advancing past
        unreachable ones (and never dialling *avoid*)."""
        failure: OSError = OSError("no endpoint is reachable")
        for offset in range(len(self.endpoints)):
            index = (self.index + offset) % len(self.endpoints)
            if self.endpoints[index] == avoid:
                continue
            try:
                raw = socket.create_connection(
                    self.endpoints[index], timeout=self.timeout
                )
            except OSError as error:
                failure = error
                continue
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.index = index
            self.sock = (
                raw if self.faults is None else FaultySocket(raw, self.faults)
            )
            return
        raise failure

    def rotate(self) -> None:
        self.index = (self.index + 1) % len(self.endpoints)

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            self.sock = None

    def exchange(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one frame, read its reply, raise on ``ok: false``.

        A message carrying a ``rid`` reads until the reply echoing it,
        discarding stale frames (injected duplicates, leftovers from an
        abandoned request).
        """
        send_frame(self.sock, message)
        rid = message.get("rid")
        while True:
            reply = recv_frame(self.sock)
            got = reply.get("rid")
            if rid is None or got is None or got == rid:
                break
            get_metrics().counter("client.stale_replies").inc()
        if not reply.get("ok", False):
            raise ServerReplyError(reply.get("error", {}))
        return reply


class ServerClient:
    """One connection = one session with a pinned snapshot."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        user: str,
        purpose: str,
        timeout: float | None = 30.0,
    ) -> None:
        self._start(WireLink([(host, port)], timeout=timeout), user, purpose)

    def _start(self, link: WireLink, user: str, purpose: str) -> None:
        self._link = link
        self._hello: dict[str, Any] = {
            "op": "hello", "user": user, "purpose": purpose,
        }
        self._closed = False
        self.session_id: int = 0
        self.seq: int = 0
        self.role: str = ""
        self.server_role: str = ""
        self.epoch: int = 0
        self._open()

    # -- plumbing ----------------------------------------------------------

    def _open(self) -> None:
        """Connect and complete the ``hello`` handshake; no half-open
        socket survives a failure."""
        self._link.connect()
        try:
            hello = self._link.exchange(self._frame(self._hello))
        except BaseException:
            self._link.close()
            raise
        self.session_id = hello["session"]
        self.seq = hello["seq"]
        self.role = hello.get("role", "")
        self.server_role = hello.get("server_role", "")
        self.epoch = hello.get("epoch", 0)

    def _frame(self, message: dict[str, Any]) -> dict[str, Any]:
        """What actually goes on the wire for *message*."""
        return message

    def _keyed(self, message: dict[str, Any]) -> dict[str, Any]:
        """A request that may write (``sql``, ``ask``, ``profile``)."""
        return message

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one frame, wait for the reply, raise on ``ok: false``."""
        if self._closed:
            raise ServerError("client is closed")
        reply = self._link.exchange(message)
        if "seq" in reply:
            self.seq = reply["seq"]
        return reply

    def close(self) -> None:
        """Say ``bye`` (best effort) and close the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._link.sock is None:
            return
        try:
            self._link.exchange({"op": "bye"})
        except (OSError, ServerError):
            pass
        finally:
            self._link.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- operations --------------------------------------------------------

    def _ask(
        self, op: str, sql: str, fraction: float, deadline_ms: float | None
    ) -> dict[str, Any]:
        message: dict[str, Any] = {"op": op, "sql": sql, "fraction": fraction}
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        return self.request(self._keyed(message))

    def ask(
        self,
        sql: str,
        fraction: float = 1.0,
        *,
        deadline_ms: float | None = None,
    ) -> dict[str, Any]:
        """Run the PCQE pipeline; returns the status/rows/confidences
        reply (an approved increment plan commits a write-back)."""
        return self._ask("ask", sql, fraction, deadline_ms)

    def profile(
        self,
        sql: str,
        fraction: float = 1.0,
        *,
        deadline_ms: float | None = None,
    ) -> dict[str, Any]:
        """``ask`` with a stage-by-stage profile report attached."""
        return self._ask("profile", sql, fraction, deadline_ms)

    def sql(self, sql: str) -> dict[str, Any]:
        """Run one SQL statement (SELECT reads the snapshot; DML commits)."""
        return self.request(self._keyed({"op": "sql", "sql": sql}))

    def refresh(self) -> int:
        """Re-pin the latest generation; returns the new ``seq``."""
        return self.request({"op": "refresh"})["seq"]

    def metrics(self) -> str:
        """The server's OpenMetrics exposition text."""
        return self.request({"op": "metrics"})["openmetrics"]


# ---------------------------------------------------------------------------
# Retrying client
# ---------------------------------------------------------------------------


class _RetryableFailure(ServerError):
    """Internal: wraps a failure the retry loop is allowed to absorb."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


_client_ids = itertools.count(1)


class RetryingClient(ServerClient):
    """A :class:`ServerClient` hardened for lossy networks and overload.

    * **Retry with backoff + jitter** — transport failures and retryable
      server rejections (``error["retryable"]`` on the wire:
      ``AdmissionError``, ``OverloadError``, ``CircuitOpenError``,
      ``RequestTimeoutError``, ``ServerDrainingError``) are retried up to
      *attempts* times with capped exponential backoff, reusing the
      durability layer's :class:`~repro.storage.durability.retry.RetryPolicy`
      semantics.  Terminal errors (bad SQL, unknown user, policy
      violations) raise :class:`ServerReplyError` immediately.
    * **Idempotency keys** — mutating requests (``sql``, ``ask``,
      ``profile``) carry a per-request ``idempotency_key`` minted once
      and reused across retries, and the ``hello`` carries a stable
      ``client_id``, so a retry after an *ambiguous* failure (the
      request may or may not have executed) is deduplicated server-side:
      the completed reply is replayed instead of the work re-running.
    * **Request ids** — every frame carries a monotonically increasing
      ``rid`` which the server echoes; replies with a stale ``rid``
      (e.g. an injected duplicate) are discarded, keeping the stream in
      sync.
    * **Reconnect** — a dead socket is replaced (fresh ``hello`` with
      the same ``client_id``) transparently before the next attempt.
    * **Endpoint rotation & failover** — pass *endpoints* (a list of
      ``"host:port"`` strings or ``(host, port)`` tuples) instead of a
      single address: every reconnect re-resolves against the list, an
      unreachable endpoint advances to the next, and a terminal error
      reply carrying ``rotate: true`` (``NotPrimaryError`` from a
      replica asked to write) rotates immediately instead of burning
      backoff attempts against a node that will never take the write.
    * **Read-your-writes** — the client remembers the ``seq`` of its own
      last acknowledged write and stamps it as ``min_seq`` on subsequent
      reads; a replica either serves a snapshot at least that fresh or
      answers the retryable ``ReplicaLagError``.

    Deterministic under test: *sleep*, *seed*, and *faults* (a
    :class:`~repro.server.faults.NetworkFaultInjector` applied to the
    client side of the socket) are injectable.
    """

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        *,
        user: str,
        purpose: str,
        endpoints: "list[str | tuple[str, int]] | None" = None,
        timeout: float | None = 30.0,
        attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter: float = 0.1,
        seed: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
        client_id: str | None = None,
        faults: NetworkFaultInjector | None = None,
        read_your_writes: bool = True,
    ) -> None:
        if not endpoints:
            if host is None or port is None:
                raise ValueError(
                    "RetryingClient needs host+port or a non-empty "
                    "endpoints list"
                )
            endpoints = [(host, int(port))]
        self._read_your_writes = read_your_writes
        self.last_write_seq = 0
        self.client_id = client_id or (
            f"rc-{os.getpid()}-{next(_client_ids)}"
        )
        self._retry = RetryPolicy(
            attempts=attempts,
            base_delay=base_delay,
            max_delay=max_delay,
            jitter=jitter,
            retryable=(_RetryableFailure,),
            sleep=sleep,
            seed=seed,
        )
        self._lock = threading.Lock()
        self._rids = itertools.count(1)
        self._keys = itertools.count(1)
        self.reconnects = 0
        self._start(
            WireLink(endpoints, timeout=timeout, faults=faults), user, purpose
        )

    # -- plumbing ----------------------------------------------------------

    def _frame(self, message: dict[str, Any]) -> dict[str, Any]:
        frame = {**message, "rid": next(self._rids)}
        op = frame.get("op")
        if op == "hello":
            frame["client_id"] = self.client_id
        elif (
            self._read_your_writes
            and self.last_write_seq > 0
            and "min_seq" not in frame
            and op in ("ask", "profile", "sql", "refresh")
        ):
            frame["min_seq"] = self.last_write_seq
        return frame

    def _keyed(self, message: dict[str, Any]) -> dict[str, Any]:
        return {
            **message,
            "idempotency_key": f"{self.client_id}:{next(self._keys)}",
        }

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one logical request, retrying as classified; the reply.

        Raises :class:`ServerReplyError` on a terminal error reply and
        ``ServerError`` with code ``RetriesExhaustedError`` (fields
        ``attempts``, ``last_error``) when every attempt failed retryably.
        """
        if self._closed:
            raise ServerError("client is closed")
        link = self._link
        with self._lock:
            frame = self._frame(message)

            def attempt() -> dict[str, Any]:
                try:
                    if link.sock is None:
                        self.reconnects += 1
                        get_metrics().counter("client.reconnects").inc()
                        self._open()
                    reply = link.exchange(frame)
                except (OSError, ProtocolError) as error:
                    # Transport death: ambiguous (the server may have
                    # executed the request) — safe to retry because
                    # mutating frames carry an idempotency key.
                    link.close()
                    raise _RetryableFailure(error) from error
                except ServerReplyError as error:
                    # (Also the rejected hello of a reconnect, e.g. by a
                    # draining server; _open left no socket behind.)
                    if error.error.get("rotate", False) and (
                        len(link.endpoints) > 1
                    ):
                        # e.g. NotPrimaryError: this node will *never*
                        # take the write — move to the next endpoint now
                        # instead of backing off against it.
                        link.close()
                        link.rotate()
                        get_metrics().counter(
                            "client.endpoint_rotations"
                        ).inc()
                    elif not error.error.get("retryable", False):
                        raise
                    raise _RetryableFailure(error) from error
                if "seq" in reply:
                    self.seq = reply["seq"]
                    if "result" in reply or "improved" in reply:
                        # The reply acknowledges a write this client
                        # made: later reads must observe at least this.
                        self.last_write_seq = max(
                            self.last_write_seq, reply["seq"]
                        )
                return reply

            def on_retry(attempt_number: int, error: BaseException) -> None:
                get_metrics().counter("server.retries").inc()

            try:
                return self._retry.call(attempt, on_retry=on_retry)
            except _RetryableFailure as failure:
                # Every attempt failed; ``last_error`` is the final failure.
                attempts, cause = self._retry.attempts, failure.cause
                raise ServerError(
                    f"request failed after {attempts} attempt(s): "
                    f"{getattr(cause, 'code', type(cause).__name__)}: {cause}",
                    code="RetriesExhaustedError",
                    attempts=attempts,
                    last_error=cause,
                ) from cause
