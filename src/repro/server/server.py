"""The PCQE socket server: many sessions, one MVCC database.

:class:`PCQEServer` accepts connections on an asyncio event loop (run on
a daemon thread, so tests and the CLI can start/stop it synchronously),
speaks the length-prefixed JSON protocol of
:mod:`~repro.server.protocol`, and runs the actual query work on a
thread pool — the event loop only ever parses frames and schedules.

Each connection starts with a ``hello`` naming ⟨user, purpose⟩ and gets
a :class:`~repro.server.session.Session` with a pinned snapshot.
Requests on one connection run in arrival order; sessions run in
parallel up to the pool size, with everything beyond that queueing.

Admission control: a request carrying ``deadline_ms`` is given a PR-3
:class:`~repro.increment.Budget` at arrival.  Before queueing, the
server projects the queue wait from the current in-flight count and an
EWMA of recent service times; if the projection already exceeds the
budget's remaining time, the request is rejected immediately with a
structured :class:`~repro.errors.AdmissionError` — a fast "no" instead
of a guaranteed-late answer.

Failure hardening (see ``docs/ROBUSTNESS.md``, "Serving under failure"):

* every reply goes through one frame-write boundary that absorbs
  half-closed sockets (``server.write_errors``) and applies injected
  chaos (:mod:`~repro.server.faults`, ``server.faults.injected``);
* a per-request server-side timeout (``request_timeout``) answers with a
  retryable :class:`~repro.errors.RequestTimeoutError` and then performs
  a cancellation handshake — budgets are cooperative, so the worker is
  given a bounded grace to acknowledge before the connection is poisoned
  (closed) rather than sharing a session with a zombie thread;
* a load-shedding tier above admission control rejects by priority class
  (``ask`` sheds first, ``metrics`` last) when the queue exceeds a
  per-class multiple of the pool (``server.shed``);
* a per-connection circuit breaker converts repeated handler failures
  into fast :class:`~repro.errors.CircuitOpenError` rejections;
* requests carrying an ``idempotency_key`` are deduplicated in a bounded
  LRU keyed by ⟨client id, key⟩, so a client retrying after an ambiguous
  failure (timeout, torn reply) gets the completed reply instead of a
  second execution (``server.idempotent_replays``);
* :meth:`PCQEServer.drain` stops accepting, lets in-flight requests
  finish (new ones get :class:`~repro.errors.ServerDrainingError`),
  checkpoints a durable database, and stops.

Observability: every request runs inside a ``server.request`` span;
``server.active_sessions`` / ``server.queue_depth`` /
``server.breaker.open`` / ``server.draining`` gauges and the
``server.request.latency_seconds`` histogram (p50/p95/p99 via the obs
stack's interpolation) feed the OpenMetrics exposition.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from ..engines import DEFAULT_ENGINE, check_engine
from ..errors import (
    AdmissionError,
    CircuitOpenError,
    OverloadError,
    ProtocolError,
    ReplicationError,
    ReplicationTimeoutError,
    ReproError,
    RequestTimeoutError,
    ServerDrainingError,
    ServerError,
    StaleEpochError,
)
from ..increment import Budget
from ..obs import TIMING_BUCKETS, get_metrics, get_tracer
from ..policy import PolicyStore
from ..storage.database import Database
from ..storage.durability.fingerprint import database_fingerprints
from ..storage.durability.snapshot import snapshot_payload
from .faults import NetworkFaultInjector
from .mvcc import MVCCDatabase
from .protocol import encode_frame, read_frame
from .replication.feed import PrimaryReplication, iter_idempotency_markers
from .session import Session

__all__ = ["PCQEServer", "PRIORITY_CLASSES"]

logger = logging.getLogger("repro.server")

#: Weight of the newest observation in the service-time EWMA.
_EWMA_ALPHA = 0.2

#: Priority class per op for the load shedder: lower sheds first.  Asks
#: are the expensive solver work and the first to go; plain SQL is mid;
#: ``metrics``/``refresh`` stay up so operators can watch the overload.
PRIORITY_CLASSES: dict[str, int] = {
    "ask": 0,
    "profile": 0,
    "sql": 1,
    "refresh": 2,
    "metrics": 2,
}

#: Queue-depth multiple of ``workers`` above which each priority class
#: is shed.  No entry = never shed.
DEFAULT_SHED_MULTIPLIERS: dict[int, float] = {0: 2.0, 1: 4.0}


class _ConnectionPoisoned(Exception):
    """Internal: send *reply*, then close the connection (zombie worker)."""

    def __init__(self, reply: dict[str, Any]) -> None:
        super().__init__("connection poisoned")
        self.reply = reply


class _ConnectionBreaker:
    """Per-connection circuit breaker over handler failures.

    ``closed`` → normal; ``threshold`` consecutive failures → ``open``
    (fast rejections, no queueing) for ``cooldown`` seconds → one
    ``half_open`` probe; its success closes the breaker, its failure
    re-opens it.  ``threshold <= 0`` disables the breaker entirely.
    The ``server.breaker.open`` gauge counts currently-open breakers.
    """

    __slots__ = ("threshold", "cooldown", "clock", "failures", "state",
                 "opened_at")

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.failures = 0
        self.state = "closed"
        self.opened_at = 0.0

    def _set_state(self, state: str) -> None:
        if state == self.state:
            return
        gauge = get_metrics().gauge("server.breaker.open")
        if self.state == "open":
            gauge.dec()
        if state == "open":
            gauge.inc()
            self.opened_at = self.clock()
        self.state = state

    def allow(self) -> tuple[bool, float]:
        """(admit?, seconds until the next probe if not)."""
        if self.state != "open":
            return True, 0.0
        elapsed = self.clock() - self.opened_at
        if elapsed >= self.cooldown:
            self._set_state("half_open")
            return True, 0.0
        return False, self.cooldown - elapsed

    def record_success(self) -> None:
        self.failures = 0
        self._set_state("closed")

    def record_failure(self) -> None:
        if self.threshold <= 0:
            return
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            self._set_state("open")

    def discard(self) -> None:
        """Connection teardown: an open breaker leaves the gauge with it."""
        self._set_state("closed")


class _ReplicatedKeys:
    """Bounded map of ⟨client id, idempotency key⟩ → commit seq, built
    from WAL-journaled dedup markers.

    Unlike :class:`_IdempotencyCache` (volatile, holds full replies)
    this map is reconstructed from the *replicated log* — on startup
    from the local WAL, on replicas from every applied frame — so a
    retry that lands on a freshly-promoted primary after failover is
    still deduplicated, even though the node that executed the original
    is dead.  The replay cannot reproduce the original reply payload
    (that died with the old primary); it answers with the committed seq,
    which is exactly what an exactly-once writer needs.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], int] = OrderedDict()

    def get(self, key: tuple[str, str]) -> "int | None":
        with self._lock:
            seq = self._entries.get(key)
            if seq is not None:
                self._entries.move_to_end(key)
            return seq

    def put(self, key: tuple[str, str], seq: int) -> None:
        with self._lock:
            self._entries[key] = seq
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _IdempotencyCache:
    """Bounded LRU of ⟨client id, idempotency key⟩ → reply (or in-flight
    future).  Storing the *future* at admission closes the double-execute
    race: a retry that lands while the original is still running awaits
    the same execution instead of starting a second one.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], Any] = OrderedDict()

    def get(self, key: tuple[str, str]) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple[str, str], value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def drop(self, key: tuple[str, str]) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class PCQEServer:
    """Serve PCQE queries over a socket with snapshot-isolated sessions.

    ``port=0`` binds an ephemeral port (tests/benchmarks); :attr:`port`
    reports the bound one.  *workers* sizes the query thread pool.
    *service_time_hint* seeds the admission controller's service-time
    estimate (seconds) before any request has completed.

    *request_timeout* (seconds) bounds every request server-side: the
    client gets a retryable :class:`~repro.errors.RequestTimeoutError`
    and the worker — whose ask budget is capped to the same horizon — is
    given a grace window to stop before the connection is closed.
    *faults* arms a :class:`~repro.server.faults.NetworkFaultInjector`
    for chaos testing.  *breaker_threshold* / *breaker_cooldown*
    configure the per-connection circuit breaker (``threshold=0``
    disables it); *shed_multipliers* maps priority class → queue-depth
    multiple of *workers* above which that class is shed.
    """

    def __init__(
        self,
        db: Database,
        policies: PolicyStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 8,
        solver: str = "greedy",
        engine: str = DEFAULT_ENGINE,
        fallback: "tuple[str, ...] | None" = None,
        service_time_hint: float = 0.0,
        request_timeout: float | None = None,
        faults: NetworkFaultInjector | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
        shed_multipliers: "dict[int, float] | None" = None,
        idempotency_capacity: int = 1024,
        read_only: bool = False,
        epoch: int = 1,
        min_sync_replicas: int = 0,
        sync_timeout: float = 2.0,
        min_seq_wait: float = 2.0,
    ) -> None:
        self.mvcc = MVCCDatabase(db)
        self.policies = policies
        self.solver = solver
        self.engine = check_engine(engine)
        self.fallback = fallback
        self.workers = workers
        self.request_timeout = request_timeout
        self.faults = faults
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.shed_multipliers = (
            dict(DEFAULT_SHED_MULTIPLIERS)
            if shed_multipliers is None
            else dict(shed_multipliers)
        )
        self._db = db
        self._host = host
        self._port = port
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="pcqe-worker"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self._bound: tuple[str, int] | None = None
        self._sessions: set[Session] = set()
        self._sessions_lock = threading.Lock()
        # Admission state: in-flight request count + service-time EWMA.
        self._admission_lock = threading.Lock()
        self._inflight = 0
        self._service_ewma = service_time_hint
        self._draining = False
        # Requests admitted but whose reply has not been written yet;
        # drain waits on this so an accepted request is never dropped
        # between its worker finishing and its reply leaving the socket.
        self._requests_open = 0
        self._idempotency = _IdempotencyCache(idempotency_capacity)
        # -- replication state --------------------------------------------
        #: Replica mode: sessions are read-only, writes answer
        #: NotPrimaryError with rotate:true.  Flipped by promotion.
        self.read_only = read_only
        self.epoch = epoch
        get_metrics().gauge("server.epoch").set(epoch)
        self.min_sync_replicas = min_sync_replicas
        self.sync_timeout = sync_timeout
        self.min_seq_wait = min_seq_wait
        #: Lowercase table names the scrubber has quarantined; shared
        #: with every session (enforced at SessionDatabase.table).
        self.quarantine: "set[str]" = set()
        self._replicated_keys = _ReplicatedKeys(idempotency_capacity)
        self._durability = db._durability if db.is_durable else None
        self.replication: PrimaryReplication | None = (
            PrimaryReplication(self._durability)
            if self._durability is not None
            else None
        )
        if self.replication is not None:
            # Rebuild the durable exactly-once map from markers already
            # in the WAL (a restarted primary must keep deduplicating
            # keys it committed before the restart).
            for seq, payload in self.replication.feed.snapshot_frames():
                try:
                    op = json.loads(payload.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    continue
                for client, idem_key in iter_idempotency_markers(op):
                    self._replicated_keys.put((client, idem_key), seq)
        if request_timeout is not None and request_timeout <= 0:
            raise ServerError("request_timeout must be positive")
        self._timeout_grace = (
            max(1.0, 2.0 * request_timeout)
            if request_timeout is not None
            else 1.0
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        if self._bound is None:
            raise ServerError("server is not running")
        return self._bound[0]

    @property
    def port(self) -> int:
        if self._bound is None:
            raise ServerError("server is not running")
        return self._bound[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def role(self) -> str:
        return "replica" if self.read_only else "primary"

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch
        get_metrics().gauge("server.epoch").set(epoch)

    def promote_to_primary(self, epoch: int) -> None:
        """Flip a replica server into the writable primary role.

        Existing sessions keep their read-only flag (they were opened
        under the old regime and reconnect through the retrying client);
        new sessions accept writes.  *epoch* fences the deposed primary.
        """
        self.read_only = False
        self.set_epoch(epoch)
        get_metrics().counter("server.promotions").inc()

    def record_replicated_key(self, client: str, key: str, seq: int) -> None:
        """Harvested WAL idempotency marker (replica apply path)."""
        self._replicated_keys.put((client, key), seq)

    def start(self) -> "PCQEServer":
        """Bind and serve on a daemon thread; returns once listening."""
        if self._thread is not None:
            raise ServerError("server already started")
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(ready,), name="pcqe-server", daemon=True
        )
        self._thread.start()
        ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5.0)
            self._thread = None
            self._startup_error = None
            raise ServerError(f"server failed to start: {error}") from error
        return self

    def _run(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle, self._host, self._port)
            )
            self._bound = self._server.sockets[0].getsockname()[:2]
        except BaseException as error:
            self._startup_error = error
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        """Stop accepting, drain workers, release every session pin."""
        if self._thread is None:
            return
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._thread = None
        self._executor.shutdown(wait=True)
        if self.replication is not None:
            self.replication.detach()
        with self._sessions_lock:
            sessions, self._sessions = list(self._sessions), set()
        for session in sessions:
            session.close()
        self._bound = None

    def drain(self, timeout: float = 5.0) -> dict[str, Any]:
        """Graceful shutdown: finish in-flight work, checkpoint, stop.

        Stops accepting new connections immediately; requests already
        admitted get up to *timeout* seconds to finish **and** have their
        replies written, while new requests (on existing connections) are
        rejected with a retryable
        :class:`~repro.errors.ServerDrainingError`.  Once quiescent — or
        at the deadline — a durable database is checkpointed and the
        server stops.  Returns a report: ``drained`` is True iff nothing
        in flight was abandoned.
        """
        if self._thread is None:
            raise ServerError("server is not running")
        assert self._loop is not None
        metrics = get_metrics()
        metrics.gauge("server.draining").set(1)
        self._draining = True
        server = self._server
        if server is not None:
            self._loop.call_soon_threadsafe(server.close)
        started = time.monotonic()
        deadline = started + timeout
        while time.monotonic() < deadline:
            with self._admission_lock:
                busy = self._inflight or self._requests_open
            if not busy:
                break
            time.sleep(0.005)
        with self._admission_lock:
            leftover = self._inflight + self._requests_open
        checkpoint_bytes = 0
        if leftover == 0 and self._db.is_durable:
            checkpoint_bytes = self._db.checkpoint()
        self.stop()
        metrics.gauge("server.draining").set(0)
        return {
            "drained": leftover == 0,
            "waited_s": time.monotonic() - started,
            "inflight": leftover,
            "checkpoint_bytes": checkpoint_bytes,
        }

    def __enter__(self) -> "PCQEServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics = get_metrics()
        session: Session | None = None
        repl_peer: "dict[str, Any] | None" = None
        breaker = _ConnectionBreaker(
            self.breaker_threshold, self.breaker_cooldown
        )
        try:
            while True:
                if self.faults is not None:
                    action = self.faults.decide("server.read")
                    if action is not None:
                        metrics.counter("server.faults.injected").inc()
                        return
                try:
                    request = await read_frame(reader)
                except ProtocolError as error:
                    await self._write_frame(writer, _error_reply(error))
                    return
                if request is None:
                    return  # clean disconnect
                op = request.get("op")
                rid = request.get("rid")
                if isinstance(op, str) and op.startswith("repl."):
                    # Replication is session-less: no snapshot pin, no
                    # policy context, and no admission accounting — a
                    # draining primary keeps feeding its replicas so
                    # acknowledged commits reach safety before shutdown.
                    if session is not None:
                        reply = _error_reply(
                            ProtocolError(
                                "replication ops are not valid on a "
                                "client session"
                            ),
                            rid=rid,
                        )
                    else:
                        if repl_peer is None:
                            repl_peer = {"id": None}
                        reply = await self._dispatch_repl(
                            op, request, repl_peer
                        )
                    if not await self._write_frame(writer, _stamp(reply, rid)):
                        return
                    continue
                if session is None:
                    if repl_peer is not None:
                        await self._write_frame(
                            writer,
                            _error_reply(
                                ProtocolError(
                                    "this connection is a replication "
                                    "link; client ops are not valid"
                                ),
                                rid=rid,
                            ),
                        )
                        return
                    if op != "hello":
                        await self._write_frame(
                            writer,
                            _error_reply(
                                ProtocolError(
                                    f"first frame must be 'hello', got {op!r}"
                                ),
                                rid=rid,
                            ),
                        )
                        return
                    if self._draining:
                        await self._write_frame(
                            writer,
                            _error_reply(
                                ServerDrainingError(
                                    "hello rejected: server is draining"
                                ),
                                rid=rid,
                            ),
                        )
                        return
                    try:
                        session = self._open_session(request)
                    except ReproError as error:
                        await self._write_frame(
                            writer, _error_reply(error, rid=rid)
                        )
                        return
                    metrics.gauge("server.active_sessions").inc()
                    await self._write_frame(
                        writer,
                        _stamp(
                            {
                                "ok": True,
                                "session": session.id,
                                "seq": session.seq,
                                "user": session.context.user,
                                "role": session.context.role,
                                "purpose": session.context.purpose,
                                "server_role": self.role,
                                "epoch": self.epoch,
                            },
                            rid,
                        ),
                    )
                    continue
                if op == "bye":
                    await self._write_frame(
                        writer, _stamp({"ok": True, "closed": True}, rid)
                    )
                    return
                poisoned = False
                with self._admission_lock:
                    self._requests_open += 1
                try:
                    try:
                        reply = await self._dispatch(
                            session, breaker, op, request
                        )
                    except _ConnectionPoisoned as zombie:
                        reply = zombie.reply
                        poisoned = True
                    wrote = await self._write_frame(
                        writer, _stamp(reply, rid)
                    )
                finally:
                    with self._admission_lock:
                        self._requests_open -= 1
                if poisoned or not wrote:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; the finally block cleans up
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection task while it was
            # parked in read_frame.  Finish normally instead of ending in
            # the cancelled state: Python 3.11's streams done-callback
            # calls task.exception() and would log the CancelledError as
            # an unhandled callback exception.
            pass
        except Exception:  # pragma: no cover - defensive backstop
            metrics.counter("server.connection_errors").inc()
            logger.exception("connection handler failed")
        finally:
            if session is not None:
                session.close()
                with self._sessions_lock:
                    self._sessions.discard(session)
                metrics.gauge("server.active_sessions").dec()
            breaker.discard()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # pragma: no cover
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                pass

    async def _write_frame(
        self, writer: asyncio.StreamWriter, message: dict[str, Any]
    ) -> bool:
        """The single frame-write boundary: faults in, socket errors out.

        Returns False when the connection is unusable afterwards — the
        caller must stop the conversation (the ``finally`` in
        :meth:`_handle` releases the session pin either way).
        """
        metrics = get_metrics()
        data = encode_frame(message)
        action = (
            self.faults.decide("server.write", len(data))
            if self.faults is not None
            else None
        )
        try:
            if action is None:
                writer.write(data)
                await writer.drain()
                return True
            metrics.counter("server.faults.injected").inc()
            if action.mode == "disconnect":
                return False
            if action.mode == "reset":
                writer.transport.abort()
                return False
            if action.mode == "torn_frame":
                writer.write(data[: action.cut])
                await writer.drain()
                writer.transport.abort()
                return False
            if action.mode == "delay":
                await asyncio.sleep(action.delay_s)
            elif action.mode == "slow_write":
                for offset in range(0, len(data), action.chunk):
                    writer.write(data[offset : offset + action.chunk])
                    await writer.drain()
                    await asyncio.sleep(action.delay_s)
                return True
            elif action.mode == "dup":
                writer.write(data)
            writer.write(data)
            await writer.drain()
            return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Half-closed peer: count it, close quietly.  Never let a
            # write error escape into the asyncio exception handler.
            metrics.counter("server.write_errors").inc()
            return False

    def _open_session(self, request: dict[str, Any]) -> Session:
        user = request.get("user")
        purpose = request.get("purpose")
        if not isinstance(user, str) or not isinstance(purpose, str):
            raise ProtocolError("hello needs string 'user' and 'purpose'")
        client_id = request.get("client_id")
        if client_id is not None and not isinstance(client_id, str):
            raise ProtocolError("client_id must be a string")
        session = Session(
            self.mvcc,
            self.policies,
            user,
            purpose,
            solver=self.solver,
            engine=self.engine,
            fallback=self.fallback,
            client_id=client_id,
            read_only=self.read_only,
            quarantine=self.quarantine,
        )
        with self._sessions_lock:
            self._sessions.add(session)
        return session

    # -- request dispatch --------------------------------------------------

    async def _dispatch(
        self,
        session: Session,
        breaker: _ConnectionBreaker,
        op: Any,
        request: dict[str, Any],
    ) -> dict[str, Any]:
        handlers: dict[str, Callable[[Session, dict[str, Any]], dict[str, Any]]] = {
            "ask": self._op_ask,
            "profile": self._op_profile,
            "sql": self._op_sql,
            "refresh": self._op_refresh,
            "metrics": self._op_metrics,
        }
        handler = handlers.get(op) if isinstance(op, str) else None
        if handler is None:
            return _error_reply(
                ProtocolError(
                    f"unknown op {op!r} (expected one of "
                    f"{sorted(handlers)} or 'bye')"
                )
            )
        metrics = get_metrics()
        key = request.get("idempotency_key")
        ckey: tuple[str, str] | None = None
        if key is not None:
            if not isinstance(key, str):
                return _error_reply(
                    ProtocolError("idempotency_key must be a string")
                )
            ckey = (session.client_id, key)
            entry = self._idempotency.get(ckey)
            if entry is not None:
                metrics.counter("server.idempotent_replays").inc()
                if isinstance(entry, asyncio.Future):
                    reply = await asyncio.shield(entry)
                else:
                    reply = entry
                reply = dict(reply)
                reply["idempotent_replay"] = True
                return reply
            seq_seen = self._replicated_keys.get(ckey)
            if seq_seen is not None:
                # Durable dedup: the key was journaled inside the commit
                # it guards, so it survives crash recovery *and* failover
                # to a promoted replica.  The full reply is gone (it lived
                # in the dead primary's volatile cache); re-acknowledge the
                # commit without re-executing it.
                metrics.counter("server.idempotent_replays").inc()

                def replay(seq: int = seq_seen) -> dict[str, Any]:
                    try:
                        self._confirm_replicated(seq)
                    except ReproError as error:
                        return _error_reply(error)
                    return {
                        "ok": True,
                        "idempotent_replay": True,
                        "seq": seq,
                        "result": "ok (deduplicated from the replicated log)",
                    }

                assert self._loop is not None
                return await asyncio.shield(
                    self._loop.run_in_executor(self._executor, replay)
                )
        allowed, retry_after = breaker.allow()
        if not allowed:
            metrics.counter("server.breaker.rejections").inc()
            return _error_reply(
                CircuitOpenError(
                    f"{op} rejected: circuit breaker open after "
                    f"{breaker.failures} consecutive failure(s); retry in "
                    f"{retry_after * 1000.0:.0f} ms",
                    failures=breaker.failures,
                    retry_after_ms=retry_after * 1000.0,
                )
            )
        deadline_ms = request.get("deadline_ms")
        try:
            budget = self._admit(op, deadline_ms)
        except ReproError as error:
            metrics.counter("server.rejected").inc()
            return _error_reply(error)
        del budget  # consumed by admission; queries budget via deadline_ms
        if self.request_timeout is not None and op in ("ask", "profile"):
            # Cap the worker's cooperative deadline by the server-side
            # timeout so a timed-out ask *stops* (degrading through the
            # session's fallback chain) instead of running on as a
            # zombie after its client already got the timeout reply.
            cap_ms = self.request_timeout * 1000.0
            if not isinstance(deadline_ms, (int, float)) or deadline_ms > cap_ms:
                request = {**request, "deadline_ms": cap_ms}

        def run() -> dict[str, Any]:
            started = time.perf_counter()
            tracer = get_tracer()
            try:
                with tracer.span(
                    "server.request",
                    op=op,
                    session=session.id,
                    user=session.context.user,
                    purpose=session.context.purpose,
                    seq=session.seq,
                ):
                    try:
                        return handler(session, request)
                    except ReproError as error:
                        return _error_reply(error)
                    except Exception as error:
                        get_metrics().counter("server.handler_errors").inc()
                        logger.exception("unexpected failure in %s handler", op)
                        return _error_reply(
                            ServerError(
                                f"internal error in {op}: "
                                f"{type(error).__name__}: {error}"
                            )
                        )
            finally:
                self._finish(time.perf_counter() - started)

        assert self._loop is not None
        future = self._loop.run_in_executor(self._executor, run)
        if ckey is not None:
            cache_key = ckey
            self._idempotency.put(cache_key, future)
            future.add_done_callback(
                lambda fut: self._settle_idempotent(cache_key, fut)
            )
        if self.request_timeout is None:
            reply = await asyncio.shield(future)
        else:
            try:
                reply = await asyncio.wait_for(
                    asyncio.shield(future), self.request_timeout
                )
            except asyncio.TimeoutError:
                metrics.counter("server.timeouts").inc()
                breaker.record_failure()
                timeout_reply = _error_reply(
                    RequestTimeoutError(
                        f"{op} exceeded the server-side request timeout of "
                        f"{self.request_timeout * 1000.0:g} ms",
                        op=str(op),
                        timeout_ms=self.request_timeout * 1000.0,
                    )
                )
                # Cancellation handshake: budgets are cooperative, so the
                # worker (whose deadline was capped above) should yield
                # shortly.  If it does not, the connection is poisoned —
                # closed after this reply — so the session is never shared
                # with a still-running worker.
                done, _pending = await asyncio.wait(
                    {future}, timeout=self._timeout_grace
                )
                if not done:
                    raise _ConnectionPoisoned(timeout_reply)
                return timeout_reply
        if reply.get("ok", False):
            breaker.record_success()
        else:
            breaker.record_failure()
        return reply

    def _settle_idempotent(
        self, key: tuple[str, str], future: "asyncio.Future"
    ) -> None:
        """Swap the in-flight future for the completed reply (ok replies
        only — a failed attempt must not pin its error as the permanent
        answer for the key)."""
        if future.cancelled() or future.exception() is not None:
            self._idempotency.drop(key)
            return
        reply = future.result()
        if isinstance(reply, dict) and reply.get("ok", False):
            self._idempotency.put(key, reply)
        else:
            self._idempotency.drop(key)

    def _admit(self, op: str, deadline_ms: Any) -> Budget | None:
        """Gate one request; returns its deadline budget (None = no SLO).

        Three tiers, cheapest first: a drain check (the server is going
        away), the load shedder (queue depth vs. a per-priority-class
        multiple of the pool — overload protection that needs no client
        deadline), then the EWMA deadline projection: the pool drains
        in-flight requests at roughly one EWMA service time per
        *workers* slots, so a request arriving with ``q`` requests in
        flight waits about ``q / workers * ewma`` seconds before it
        runs.  Reject when that projection alone blows the deadline.
        """
        metrics = get_metrics()
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
        ):
            raise ProtocolError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        if self._draining:
            raise ServerDrainingError(
                f"{op} rejected: server is draining (in-flight work is "
                f"finishing; no new work is accepted)"
            )
        with self._admission_lock:
            queue_depth = self._inflight
            ewma = self._service_ewma
            priority = PRIORITY_CLASSES.get(op, 1)
            multiplier = self.shed_multipliers.get(priority)
            if multiplier is not None:
                limit = max(1, int(self.workers * multiplier))
                if queue_depth >= limit:
                    metrics.counter("server.shed").inc()
                    raise OverloadError(
                        f"{op} shed: {queue_depth} request(s) in flight >= "
                        f"the class-{priority} limit of {limit} "
                        f"({self.workers} worker(s) x {multiplier:g})",
                        op=str(op),
                        priority=priority,
                        queue_depth=queue_depth,
                        limit=limit,
                    )
            budget = None
            if deadline_ms is not None:
                budget = Budget.from_deadline_ms(float(deadline_ms))
                projected = queue_depth * ewma / max(1, self.workers)
                remaining = budget.deadline - time.perf_counter()
                if projected > remaining:
                    raise AdmissionError(
                        f"{op} rejected at admission: projected queue wait "
                        f"{projected * 1000.0:.1f} ms exceeds the "
                        f"{float(deadline_ms):g} ms deadline "
                        f"({queue_depth} request(s) in flight)",
                        deadline_ms=float(deadline_ms),
                        projected_wait_ms=projected * 1000.0,
                        queue_depth=queue_depth,
                    )
            self._inflight += 1
            metrics.gauge("server.queue_depth").set(self._inflight)
        metrics.counter("server.requests").inc()
        return budget

    def _finish(self, elapsed_seconds: float) -> None:
        metrics = get_metrics()
        with self._admission_lock:
            self._inflight -= 1
            metrics.gauge("server.queue_depth").set(self._inflight)
            if self._service_ewma <= 0.0:
                self._service_ewma = elapsed_seconds
            else:
                self._service_ewma += _EWMA_ALPHA * (
                    elapsed_seconds - self._service_ewma
                )
        metrics.histogram(
            "server.request.latency_seconds", TIMING_BUCKETS
        ).observe(elapsed_seconds)

    # -- ops (run on worker threads) ---------------------------------------

    def _op_ask(
        self, session: Session, request: dict[str, Any], profile: bool = False
    ) -> dict[str, Any]:
        self._ensure_min_seq(session, request)
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("ask needs a non-empty 'sql' string")
        fraction = request.get("fraction", 1.0)
        if not isinstance(fraction, (int, float)):
            raise ProtocolError(f"fraction must be a number, got {fraction!r}")
        deadline_ms = request.get("deadline_ms")
        result = session.ask(
            sql,
            float(fraction),
            profile=profile,
            deadline_ms=float(deadline_ms) if deadline_ms is not None else None,
        )
        reply: dict[str, Any] = {
            "ok": True,
            "status": result.status.value,
            "threshold": result.threshold,
            "seq": session.seq,
            "rows": [list(row.values) for row, _conf in result.released],
            "confidences": [conf for _row, conf in result.released],
            "released": len(result.released),
            "withheld": result.withheld_count,
        }
        if result.degraded:
            reply["degraded"] = True
        if result.quote is not None:
            reply["quote"] = {
                "cost": result.quote.cost,
                "shortfall": result.quote.shortfall,
            }
        if result.receipt is not None:
            reply["improved"] = result.receipt.tuples_improved
            reply["improvement_cost"] = result.receipt.total_cost
            # The improvement write-back committed; under semi-sync
            # replication the acknowledgement must wait for replicas too.
            self._confirm_replicated(session.seq)
        if result.profile is not None:
            reply["profile"] = result.profile.format()
        return reply

    def _op_profile(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        return self._op_ask(session, request, profile=True)

    def _op_sql(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        from ..sql import DmlResult

        self._ensure_min_seq(session, request)
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("sql needs a non-empty 'sql' string")
        key = request.get("idempotency_key")
        idempotency = (
            key if isinstance(key, str) and self._db.is_durable else None
        )
        result = session.run_sql(sql, idempotency=idempotency)
        if isinstance(result, DmlResult):
            seq = session.seq
            if idempotency is not None:
                # Record before confirming: if the semi-sync wait times
                # out and the client retries, the retry must hit the
                # durable replay path, not re-execute the statement.
                self._replicated_keys.put((session.client_id, idempotency), seq)
            self._confirm_replicated(seq)
            return {"ok": True, "result": str(result), "seq": seq}
        return {
            "ok": True,
            "columns": list(result.schema.names),
            "rows": [list(row.values) for row in result.rows],
            "confidences": [
                conf for _row, conf in result.with_confidences(session.db)
            ],
            "count": len(result),
            "seq": session.seq,
        }

    def _op_refresh(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        self._ensure_min_seq(session, request)
        return {"ok": True, "seq": session.refresh()}

    def _op_metrics(
        self, session: Session, request: dict[str, Any]
    ) -> dict[str, Any]:
        from ..obs import render_openmetrics

        return {"ok": True, "openmetrics": render_openmetrics()}

    # -- read-your-writes + semi-sync helpers --------------------------------

    def _ensure_min_seq(self, session: Session, request: dict[str, Any]) -> None:
        """Honor the request's ``min_seq`` read-your-writes floor."""
        min_seq = request.get("min_seq")
        if min_seq is None:
            return
        if not isinstance(min_seq, int) or min_seq < 0:
            raise ProtocolError(
                f"min_seq must be a non-negative integer, got {min_seq!r}"
            )
        session.ensure_seq(min_seq, self.min_seq_wait)

    def _confirm_replicated(self, seq: int) -> None:
        """Block an acknowledgement until ``min_sync_replicas`` replicas
        have durably applied *seq* (semi-synchronous replication).

        On timeout the commit is NOT rolled back — it is durable locally
        and still streaming — but the client gets a retryable error, so
        "acknowledged" always implies "on at least N replicas".
        """
        if self.min_sync_replicas <= 0 or self.replication is None:
            return
        acked = self.replication.wait_for_acks(
            seq, self.min_sync_replicas, self.sync_timeout
        )
        if acked < self.min_sync_replicas:
            get_metrics().counter("server.sync_timeouts").inc()
            raise ReplicationTimeoutError(
                f"commit at seq {seq} reached only {acked} of "
                f"{self.min_sync_replicas} required replica(s) within "
                f"{self.sync_timeout * 1000.0:.0f} ms",
                seq=seq,
                required=self.min_sync_replicas,
                acked=acked,
            )

    # -- replication ops (session-less; see _handle) -------------------------

    async def _dispatch_repl(
        self, op: str, request: dict[str, Any], peer: dict[str, Any]
    ) -> dict[str, Any]:
        handlers: dict[str, Callable[..., dict[str, Any]]] = {
            "repl.handshake": self._repl_handshake,
            "repl.pull": self._repl_pull,
            "repl.snapshot": self._repl_snapshot,
            "repl.digest": self._repl_digest,
            "repl.fingerprints": self._repl_fingerprints,
        }
        handler = handlers.get(op)
        if handler is None:
            return _error_reply(
                ProtocolError(
                    f"unknown replication op {op!r} "
                    f"(expected one of {sorted(handlers)})"
                )
            )
        if self.replication is None:
            return _error_reply(
                ServerError(
                    "replication requires a durable database "
                    "(this server is in-memory)"
                )
            )
        if op != "repl.handshake" and peer["id"] is None:
            return _error_reply(
                ProtocolError(
                    f"{op} before repl.handshake: the handshake names the "
                    f"replica and agrees on an epoch first"
                )
            )

        def run() -> dict[str, Any]:
            try:
                return handler(request, peer)
            except ReproError as error:
                return _error_reply(error)
            except Exception as error:
                get_metrics().counter("server.handler_errors").inc()
                logger.exception("unexpected failure in %s handler", op)
                return _error_reply(
                    ServerError(
                        f"internal error in {op}: "
                        f"{type(error).__name__}: {error}"
                    )
                )

        assert self._loop is not None
        return await asyncio.shield(
            self._loop.run_in_executor(self._executor, run)
        )

    def _repl_epoch_guard(self, request: dict[str, Any]) -> None:
        """Fence a deposed primary: a peer announcing a *higher* epoch
        proves a promotion happened behind our back, so this node must
        stop acting as primary for replication purposes.  Lower peer
        epochs are fine — the reply carries ours and the replica adopts
        it."""
        peer_epoch = request.get("epoch")
        if peer_epoch is None:
            return
        if not isinstance(peer_epoch, int) or peer_epoch < 0:
            raise ProtocolError(
                f"epoch must be a non-negative integer, got {peer_epoch!r}"
            )
        if peer_epoch > self.epoch:
            get_metrics().counter("server.fenced").inc()
            raise StaleEpochError(
                f"this server's epoch {self.epoch} is stale: a peer is at "
                f"epoch {peer_epoch} (a newer primary has been promoted)",
                stale_epoch=self.epoch,
                current_epoch=peer_epoch,
            )

    def _repl_handshake(
        self, request: dict[str, Any], peer: dict[str, Any]
    ) -> dict[str, Any]:
        replica = request.get("replica")
        if not isinstance(replica, str) or not replica:
            raise ProtocolError(
                "repl.handshake needs a non-empty 'replica' id"
            )
        self._repl_epoch_guard(request)
        peer["id"] = replica
        last_seq = request.get("last_seq")
        if isinstance(last_seq, int) and last_seq >= 0:
            assert self.replication is not None
            self.replication.record_ack(replica, last_seq)
        assert self._durability is not None
        return {
            "ok": True,
            "epoch": self.epoch,
            "last_seq": self._durability.last_seq,
            "role": self.role,
        }

    def _repl_pull(
        self, request: dict[str, Any], peer: dict[str, Any]
    ) -> dict[str, Any]:
        self._repl_epoch_guard(request)
        assert self.replication is not None and self._durability is not None
        from_seq = request.get("from_seq")
        if not isinstance(from_seq, int) or from_seq < 0:
            raise ProtocolError(
                f"repl.pull needs a non-negative integer 'from_seq', "
                f"got {from_seq!r}"
            )
        max_frames = request.get("max_frames", 256)
        if not isinstance(max_frames, int) or not 1 <= max_frames <= 1024:
            raise ProtocolError(
                f"max_frames must be an integer in [1, 1024], "
                f"got {max_frames!r}"
            )
        wait_ms = request.get("wait_ms", 0)
        if not isinstance(wait_ms, (int, float)) or not 0 <= wait_ms <= 2000:
            raise ProtocolError(
                f"wait_ms must be a number in [0, 2000], got {wait_ms!r}"
            )
        applied = request.get("applied")
        if isinstance(applied, int) and applied >= 0:
            self.replication.record_ack(peer["id"], applied)
        frames = self.replication.feed.frames_since(
            from_seq, max_frames, wait_ms / 1000.0
        )
        if frames is None:
            return {"ok": True, "epoch": self.epoch, "resync": True,
                    "last_seq": self._durability.last_seq}
        return {
            "ok": True,
            "epoch": self.epoch,
            "last_seq": self._durability.last_seq,
            "frames": [
                [seq, payload.decode("utf-8")] for seq, payload in frames
            ],
        }

    def _repl_snapshot(
        self, request: dict[str, Any], peer: dict[str, Any]
    ) -> dict[str, Any]:
        self._repl_epoch_guard(request)
        assert self._durability is not None
        # Pause commits so the payload and its wal_seq agree exactly —
        # the replica anchors its replication position at this seq.
        with self.mvcc.paused_commits():
            wal_seq = self._durability.last_seq
            payload = snapshot_payload(self._db, wal_seq)
        return {
            "ok": True,
            "epoch": self.epoch,
            "seq": wal_seq,
            "snapshot": payload,
        }

    def _repl_digest(
        self, request: dict[str, Any], peer: dict[str, Any]
    ) -> dict[str, Any]:
        self._repl_epoch_guard(request)
        assert self.replication is not None and self._durability is not None
        from_seq = request.get("from_seq")
        to_seq = request.get("to_seq")
        if not isinstance(from_seq, int) or not isinstance(to_seq, int):
            raise ProtocolError(
                "repl.digest needs integer 'from_seq' and 'to_seq'"
            )
        digests = self.replication.feed.digests(from_seq, to_seq)
        if digests is None:
            return {"ok": True, "epoch": self.epoch, "resync": True,
                    "last_seq": self._durability.last_seq}
        return {
            "ok": True,
            "epoch": self.epoch,
            "digests": [[seq, digest] for seq, digest in digests],
            "last_seq": self._durability.last_seq,
        }

    def _repl_fingerprints(
        self, request: dict[str, Any], peer: dict[str, Any]
    ) -> dict[str, Any]:
        self._repl_epoch_guard(request)
        assert self._durability is not None
        with self.mvcc.paused_commits():
            seq = self._durability.last_seq
            prints = database_fingerprints(self._db)
        return {
            "ok": True,
            "epoch": self.epoch,
            "seq": seq,
            "fingerprints": prints,
        }


def _stamp(reply: dict[str, Any], rid: Any) -> dict[str, Any]:
    """Echo the client's request id so retrying clients can discard
    stale/duplicated replies on a reused connection."""
    if rid is None:
        return reply
    return {**reply, "rid": rid}


def _error_reply(error: BaseException, rid: Any = None) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, ServerError):
        payload["retryable"] = error.retryable
        payload.update(error.details())
    reply = {"ok": False, "error": payload}
    return _stamp(reply, rid)
