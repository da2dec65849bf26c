"""The PCQE socket server: many sessions, one MVCC database.

:meth:`PCQEServer.handle` answers one decoded frame on the caller's
thread.  The socket side is an adapter around it: an asyncio event loop
(run on a daemon thread, so tests and the CLI can start/stop it
synchronously) reads the length-prefixed JSON frames of
:mod:`~repro.server.protocol`, runs the stages, and makes one hop to a
thread pool for the part that blocks — the event loop only ever parses
frames and schedules.

Each connection starts with a ``hello`` naming ⟨user, purpose⟩ and gets
a :class:`~repro.server.session.Session` with a pinned snapshot.
Requests on one connection run in arrival order; sessions run in
parallel up to the pool size, with everything beyond that queueing.

One request path: every decoded frame becomes one request record and
walks one pipeline — route by connection kind, then the stages that kind
owes (client session: idempotent replay → breaker → drain/shed/admit →
run; replication link: fence → run) — until a stage sets the reply or
leaves one pending call; the reply is stamped with the request's
``rid`` and, over a socket, written at the single write boundary
(``docs/SERVING.md`` has the stage table).  The ops are rows of one
table built at construction.

Admission control: before queueing a request carrying ``deadline_ms``,
the server projects the queue wait from the current in-flight count and
an EWMA of recent service times; if the projection already exceeds the
deadline, the request is rejected immediately with a structured
``AdmissionError`` — a fast "no" instead of a
guaranteed-late answer.

Failure hardening (see ``docs/ROBUSTNESS.md``, "Serving under failure"):

* every reply goes through one frame-write boundary that absorbs
  half-closed sockets (``server.write_errors``) and applies injected
  chaos (:mod:`~repro.server.faults`, ``server.faults.injected``);
* a per-request server-side timeout (``request_timeout``) answers with a
  retryable ``RequestTimeoutError`` and then performs
  a cancellation handshake — budgets are cooperative, so the worker is
  given a bounded grace to acknowledge before the connection is poisoned
  (closed) rather than sharing a session with a zombie thread;
* a load-shedding tier above admission control rejects by priority class
  (``ask`` sheds first, ``metrics`` last) when the queue exceeds a
  per-class multiple of the pool (``server.shed``);
* a per-connection circuit breaker converts repeated handler failures
  into fast ``CircuitOpenError`` rejections;
* requests carrying an ``idempotency_key`` are deduplicated in a bounded
  LRU keyed by ⟨client id, key⟩, so a client retrying after an ambiguous
  failure (timeout, torn reply) gets the completed reply instead of a
  second execution (``server.idempotent_replays``);
* :meth:`PCQEServer.drain` stops accepting, lets in-flight requests
  finish (new ones get ``ServerDrainingError``),
  checkpoints a durable database, and stops.

Observability: every request runs inside a ``server.request`` span;
``server.active_sessions`` / ``server.queue_depth`` /
``server.breaker.open`` / ``server.draining`` gauges and the
``server.request.latency_seconds`` histogram (p50/p95/p99 via the obs
stack's interpolation) feed the OpenMetrics exposition.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from ..engines import DEFAULT_ENGINE, check_engine
from ..errors import ProtocolError, ReplicationTimeoutError, ReproError, ServerError
from ..increment.runtime import is_deadline
from ..obs import TIMING_BUCKETS, get_metrics, get_tracer
from ..policy import PolicyStore
from ..storage.database import IDEMPOTENCY_CAPACITY, Database
from ..storage.lru import BoundedLRU as _KeyedLRU  # ⟨client id, key⟩ → entry
from .faults import NetworkFaultInjector
from .mvcc import MVCCDatabase
from .protocol import encode_frame, is_number, read_frame
from .replication.feed import PrimaryReplication
from .replication.ops import LINK_OP_PREFIX, register_link_ops
from .session import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.audit import AuditLog

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

#: Consecutive handler failures that open a connection's breaker, and
#: the seconds it then stays open before the half-open probe.
BREAKER_THRESHOLD = 5
BREAKER_COOLDOWN = 1.0

#: Seconds a ``min_seq`` read waits for replication before answering
#: with the retryable ``ReplicaLagError``.
MIN_SEQ_WAIT = 2.0


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
        threshold: int = BREAKER_THRESHOLD,
        cooldown: float = BREAKER_COOLDOWN,
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


class _Op(NamedTuple):
    """One row of the op table: who may send the op, what it owes."""

    #: ``(session | link peer state, frame) -> reply``, run on a worker.
    handler: Callable[[Any, dict[str, Any]], dict[str, Any]]
    kind: str = "session"  # the kind of connection that may carry it
    #: Shed class of a session op (a class without a shed multiplier is
    #: never shed); links are outside admission altogether.
    priority: int = 1
    #: Ask-like: the worker's deadline is capped by ``request_timeout``.
    capped: bool = False
    #: Link ops: ``(peer state, frame)`` check run first; raises the refusal.
    fence: "Callable[[Any, dict[str, Any]], None] | None" = None


#: Routing, by connection kind: the refusal for an op of the other family,
#: whether the conversation ends with it, and the refusal for an op of
#: its own family that nobody registered.
_ROUTES: dict[str, tuple[str, bool, str]] = {
    "fresh": ("first frame must be 'hello', got {op!r}", True, ""),
    "session": (
        "replication ops are not valid on a client session",
        False,
        "unknown op {op!r} (expected one of {ops} or 'bye')",
    ),
    "replication": (
        "this connection is a replication link; client ops are not valid",
        True,
        "unknown replication op {op!r} (expected one of {ops})",
    ),
}


class _Connection:
    """What one socket has become: ``fresh`` until its first frame, then
    a client ``session`` or a ``replication`` link — never both."""

    __slots__ = ("kind", "party", "breaker")

    def __init__(self) -> None:
        self.kind = "fresh"
        #: The :class:`Session`, or a link's ``{"id": replica id}`` state.
        self.party: Any = None
        self.breaker = _ConnectionBreaker()


class _Request:
    """The one record a decoded frame carries down the pipeline.

    A stage reads what earlier stages added and adds its own; setting
    ``reply`` or ``pending`` ends the walk.  What a skipped stage would
    have added keeps its default, which is its stated consequence
    downstream: never ``admitted`` means no slot to give back, no span,
    no breaker verdict; no ``timeout`` means the run is not bounded.
    """

    __slots__ = ("conn", "frame", "op", "rid", "entry", "key", "admitted",
                 "timeout", "reply", "close", "pending")

    def __init__(self, conn: _Connection, frame: dict[str, Any]) -> None:
        self.conn, self.frame = conn, frame
        self.op, self.rid = frame.get("op"), frame.get("rid")
        self.entry: Any = None  # the op-table row, once routed
        self.key: Any = None  # ⟨client id, idempotency key⟩
        self.timeout: float | None = None
        self.reply: Any = None
        self.admitted = self.close = False  # close: hang up after the reply
        #: The blocking call left for last — the run, the in-flight run
        #: a replay shares, or a durable re-acknowledgement — whose
        #: return value is the reply.
        self.pending: "Callable[[], dict[str, Any]] | None" = None

    def refuse(self, error: ReproError) -> None:
        self.reply = _error_reply(error)


class PCQEServer:
    """Serve PCQE queries over a socket with snapshot-isolated sessions.

    ``port=0`` binds an ephemeral port (tests/benchmarks); :attr:`port`
    reports the bound one.  *workers* sizes the query thread pool.

    *request_timeout* (seconds) bounds every request server-side: the
    client gets a retryable ``RequestTimeoutError``
    and the worker — whose ask budget is capped to the same horizon — is
    given a grace window to stop before the connection is closed.
    *faults* arms a :class:`~repro.server.faults.NetworkFaultInjector`
    for chaos testing.  :attr:`shed_multipliers` maps priority class →
    queue-depth multiple of *workers* above which that class is shed.
    *audit* is the :class:`~repro.obs.audit.AuditLog` every session's
    asks journal their trails to, each stamped with the session's pin.
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
        request_timeout: float | None = None,
        faults: NetworkFaultInjector | None = None,
        read_only: bool = False,
        epoch: int = 1,
        min_sync_replicas: int = 0,
        sync_timeout: float = 2.0,
        audit: "AuditLog | None" = None,
    ) -> None:
        # Validate before acquiring anything: a rejected constructor must
        # not leave a commit listener attached to the caller's database.
        self.engine = check_engine(engine)
        if request_timeout is not None and request_timeout <= 0:
            raise ServerError("request_timeout must be positive")
        self.request_timeout = request_timeout
        self.policies = policies
        self.solver = solver
        #: The journal every session's asks are audited to (None: off).
        self.audit = audit
        self.fallback = fallback
        self.workers = workers
        self.faults = faults
        self.shed_multipliers = dict(DEFAULT_SHED_MULTIPLIERS)
        self.min_seq_wait = MIN_SEQ_WAIT
        self._db = db
        self._host = host
        self._port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self._bound: tuple[str, int] | None = None
        self._sessions: set[Session] = set()
        self._sessions_lock = threading.Lock()
        # Admission state: in-flight request count + service-time EWMA
        # (which seeds itself from the first completion).
        self._admission_lock = threading.Lock()
        # Over the same lock: drain() sleeps on it until the last open
        # request settles.
        self._quiesced = threading.Condition(self._admission_lock)
        self._inflight = 0
        self._service_ewma = 0.0
        self._draining = False
        # Session requests decoded but whose reply has not been written
        # yet; drain waits on this so an accepted request is never dropped
        # between its worker finishing and its reply leaving the socket.
        self._requests_open = 0
        # -- replication state --------------------------------------------
        #: Replica mode: sessions are read-only, writes answer
        #: NotPrimaryError with rotate:true.  Flipped by promotion.
        self.read_only = read_only
        self.min_sync_replicas = min_sync_replicas
        self.sync_timeout = sync_timeout
        #: Lowercase table names the scrubber has quarantined; shared
        #: with every session (enforced at SessionDatabase.table).
        self.quarantine: "set[str]" = set()
        # The volatile exactly-once map: key → completed reply, or the
        # in-flight future — storing the *future* at admission closes the
        # double-execute race: a retry that lands while the original is
        # still running awaits the same execution instead of starting a
        # second one.  The durable map (key → commit seq) is the database's
        # own replicated state, ``Database.idempotency_keys``; a hit there
        # cannot reproduce the original reply, it answers with the
        # committed seq — exactly what an exactly-once writer needs.
        self._idempotency = _KeyedLRU(IDEMPOTENCY_CAPACITY)
        # The op table, built once: session ops here, link ops by the
        # package that owns them.
        self._ops: dict[str, _Op] = {}
        for name, handler, capped in (
            ("ask", self._op_ask, True),
            ("profile", functools.partial(self._op_ask, profile=True), True),
            ("sql", self._op_sql, False),
            ("refresh", self._op_refresh, False),
            ("metrics", self._op_metrics, False),
        ):
            self.register_op(
                name, handler, priority=PRIORITY_CLASSES[name], capped=capped
            )
        register_link_ops(self)
        #: The stages a routed request still walks, by connection kind.
        self._stages = {
            "session": (
                self._replay, self._breaker, self._admission, self._run_op
            ),
            "replication": (self._fence, self._run_op),
        }
        # -- acquisitions (released by stop(), started or not) ------------
        self.set_epoch(epoch)
        self.mvcc = MVCCDatabase(db)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="pcqe-worker"
        )
        self.replication: PrimaryReplication | None = (
            PrimaryReplication(db._durability) if db.is_durable else None
        )

    def register_op(
        self, name: str, handler: Callable[..., dict[str, Any]], **row: Any
    ) -> None:
        """Add one row to the op table (construction time only)."""
        self._ops[name] = _Op(handler, **row)

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
        """Stop accepting, drain workers, release every session pin — and
        everything the constructor acquired, whether or not
        :meth:`start` ever ran (idempotent)."""
        if self._thread is not None:
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
        ``ServerDrainingError``.  Once quiescent — or
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
        with self._admission_lock:
            self._quiesced.wait_for(self._quiescent, timeout)
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

    def _quiescent(self) -> bool:
        """Nothing admitted and no reply unwritten (admission lock held)."""
        return not (self._inflight or self._requests_open)

    def __enter__(self) -> "PCQEServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics = get_metrics()
        conn = _Connection()
        try:
            while True:
                if self.faults is not None:
                    action = self.faults.decide("server.read")
                    if action is not None:
                        metrics.counter("server.faults.injected").inc()
                        return
                try:
                    frame = await read_frame(reader)
                except ProtocolError as error:
                    await self._write_frame(writer, _error_reply(error))
                    return
                if frame is None:
                    return  # clean disconnect
                # Replication links stay out of drain's books: a draining
                # primary keeps feeding its replicas so acknowledged
                # commits reach safety before shutdown.
                counted = conn.kind == "session"
                if counted:
                    with self._admission_lock:
                        self._requests_open += 1
                try:
                    reply, close = await self._serve(conn, frame)
                    wrote = await self._write_frame(writer, reply)
                finally:
                    if counted:
                        with self._admission_lock:
                            self._requests_open -= 1
                            if self._draining and self._quiescent():
                                self._quiesced.notify_all()
                if close or not wrote:
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
            self.hang_up(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # pragma: no cover
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                pass

    async def _serve(
        self, conn: _Connection, frame: dict[str, Any]
    ) -> "tuple[dict[str, Any], bool]":
        """:meth:`handle` behind a socket: the stages run on the event
        loop, the pending part makes the one hop to the pool, under the
        request timeout."""
        req = self._walk(conn, frame)
        if req.pending is not None:
            assert self._loop is not None
            hop = self._loop.run_in_executor(self._executor, req.pending)
            try:
                reply = await asyncio.wait_for(
                    asyncio.shield(hop), req.timeout
                )
            except asyncio.TimeoutError:
                get_metrics().counter("server.timeouts").inc()
                reply = _error_reply(
                    ServerError(
                        f"{req.op} exceeded the server-side request timeout "
                        f"of {req.timeout * 1000.0:g} ms",
                        code="RequestTimeoutError",
                        retryable=True,
                        op=str(req.op),
                        timeout_ms=req.timeout * 1000.0,
                    )
                )
                # Cancellation handshake: budgets are cooperative, so the
                # worker (whose deadline was capped at admission) should
                # yield shortly.  If it does not within the grace window,
                # the connection is poisoned — closed after this reply —
                # so the session is never shared with a still-running
                # worker.  The late result gets no breaker verdict.
                done, _pending = await asyncio.wait(
                    {hop}, timeout=max(1.0, 2.0 * req.timeout)
                )
                req.close = not done
            self._settle(req, reply)
        return _stamp(req.reply, req.rid), req.close

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

    # -- the request pipeline ------------------------------------------------

    def handle(
        self, conn: _Connection, frame: dict[str, Any]
    ) -> "tuple[dict[str, Any], bool]":
        """Answer one decoded frame on *conn*, all on the caller's thread:
        walk the stages, wait on what they left pending inline, settle.
        Returns the ``rid``-stamped reply and whether to hang up after it.
        No wall-clock timeout applies here — that is the socket's."""
        req = self._walk(conn, frame)
        if req.pending is not None:
            self._settle(req, req.pending())
        return _stamp(req.reply, req.rid), req.close

    def hang_up(self, conn: _Connection) -> None:
        """Release what a finished conversation held: its session's pin,
        its place in the session set and gauge, an open breaker's gauge."""
        if conn.kind == "session":
            conn.party.close()
            with self._sessions_lock:
                self._sessions.discard(conn.party)
            get_metrics().gauge("server.active_sessions").dec()
        conn.breaker.discard()

    def _walk(self, conn: _Connection, frame: dict[str, Any]) -> _Request:
        """Walk one decoded frame down the pipeline until a stage sets its
        reply or leaves it pending; every stage is a plain call."""
        req = _Request(conn, frame)
        for stage in self._route(req):
            stage(req)
            if req.reply is not None or req.pending is not None:
                break
        return req

    def _settle(self, req: _Request, reply: dict[str, Any]) -> None:
        """The pending call's reply becomes the request's, and an admitted
        request gets its one breaker verdict on it."""
        req.reply = reply
        if req.admitted and reply.get("ok", False):
            req.conn.breaker.record_success()
        elif req.admitted:
            req.conn.breaker.record_failure()

    def _reply_of(self, label: Any, call: Callable[..., Any], *args: Any) -> Any:
        """The one place an exception becomes a reply: what *call*
        returns (``None`` from a check that passed), or the error reply
        for what it raised."""
        try:
            return call(*args)
        except ReproError as error:
            return _error_reply(error)
        except Exception as error:
            get_metrics().counter("server.handler_errors").inc()
            logger.exception("unexpected failure in %s handler", label)
            return _error_reply(
                ServerError(
                    f"internal error in {label}: "
                    f"{type(error).__name__}: {error}"
                )
            )

    def _route(self, req: _Request) -> "tuple[Callable[[_Request], Any], ...]":
        """Connection kind × op family → the stages the request still
        owes; none once it is answered here.  ``hello`` and ``bye`` open
        and end a client session; they are conversation control, not ops.
        """
        conn, op = req.conn, req.op
        req.entry = self._ops.get(op) if isinstance(op, str) else None
        link_op = (
            req.entry.kind == "replication"
            if req.entry is not None
            else isinstance(op, str) and op.startswith(LINK_OP_PREFIX)
        )
        if conn.kind == "fresh" and op == "hello":
            # A refused hello hangs up.
            if self._draining:
                req.refuse(
                    ServerError(
                        "hello rejected: server is draining",
                        code="ServerDrainingError",
                        retryable=True,
                    )
                )
            else:
                req.reply = self._reply_of(
                    op, self._open_session, conn, req.frame
                )
            req.close = not req.reply["ok"]
            return ()
        if conn.kind == "fresh" and link_op:
            conn.kind, conn.party = "replication", {"id": None}
        foreign, hangs_up, unknown = _ROUTES[conn.kind]
        if conn.kind == "fresh" or link_op != (conn.kind == "replication"):
            req.refuse(ProtocolError(foreign.format(op=op)))
            req.close = hangs_up
        elif op == "bye":
            req.reply, req.close = {"ok": True, "closed": True}, True
        elif req.entry is None:
            ops = sorted(
                name for name, row in self._ops.items() if row.kind == conn.kind
            )
            req.refuse(ProtocolError(unknown.format(op=op, ops=ops)))
        else:
            return self._stages[conn.kind]
        return ()

    def _open_session(
        self, conn: _Connection, frame: dict[str, Any]
    ) -> dict[str, Any]:
        user = frame.get("user")
        purpose = frame.get("purpose")
        if not isinstance(user, str) or not isinstance(purpose, str):
            raise ProtocolError("hello needs string 'user' and 'purpose'")
        client_id = frame.get("client_id")
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
            audit=self.audit,
        )
        with self._sessions_lock:
            self._sessions.add(session)
        conn.kind, conn.party = "session", session
        get_metrics().gauge("server.active_sessions").inc()
        return {
            "ok": True,
            "session": session.id,
            "seq": session.seq,
            "user": session.context.user,
            "role": session.context.role,
            "purpose": session.context.purpose,
            "server_role": self.role,
            "epoch": self.epoch,
        }

    def _fence(self, req: _Request) -> None:
        """Link ops: the check their package registered (a durable log?
        handshake first? a peer epoch ahead of ours?)."""
        req.reply = self._reply_of(
            req.op, req.entry.fence, req.conn.party, req.frame
        )

    def _replay(self, req: _Request) -> None:
        """Exactly-once: a key seen before is answered, not re-executed."""
        key = req.frame.get("idempotency_key")
        if key is None:
            return
        if not isinstance(key, str):
            return req.refuse(ProtocolError("idempotency_key must be a string"))
        req.key = (req.conn.party.client_id, key)
        seen = self._idempotency.get(req.key)
        if seen is None:
            seq = self._db.idempotency_keys.get(req.key)
            if seq is None:
                return
            # Durable dedup: the key was journaled inside the commit it
            # guards and restored by whatever restored that commit — log
            # replay, a snapshot, a replica's apply.  The full reply is
            # gone (it lived in the executing process's volatile cache);
            # re-acknowledge the commit without re-executing it (a failed
            # re-wait is a plain error).
            req.pending = functools.partial(
                self._reply_of, req.op, self._reacknowledge, seq
            )
        elif isinstance(seen, Future):  # still running: share it
            req.pending = lambda: {**seen.result(), "idempotent_replay": True}
        else:
            req.reply = {**seen, "idempotent_replay": True}
        get_metrics().counter("server.idempotent_replays").inc()

    def _reacknowledge(self, seq: int) -> dict[str, Any]:
        self._confirm_replicated(seq)
        return {
            "ok": True,
            "idempotent_replay": True,
            "seq": seq,
            "result": "ok (deduplicated from the replicated log)",
        }

    def _breaker(self, req: _Request) -> None:
        breaker = req.conn.breaker
        allowed, retry_after = breaker.allow()
        if not allowed:
            get_metrics().counter("server.breaker.rejections").inc()
            req.refuse(
                ServerError(
                    f"{req.op} rejected: circuit breaker open after "
                    f"{breaker.failures} consecutive failure(s); retry in "
                    f"{retry_after * 1000.0:.0f} ms",
                    code="CircuitOpenError",
                    retryable=True,
                    failures=breaker.failures,
                    retry_after_ms=retry_after * 1000.0,
                )
            )

    def _admission(self, req: _Request) -> None:
        """Drain/shed/admit; an admitted request holds a pool slot and is
        bounded by the server-side timeout."""
        deadline_ms = req.frame.get("deadline_ms")
        req.reply = self._reply_of(req.op, self._admit, req.op, deadline_ms)
        if req.reply is not None:
            get_metrics().counter("server.rejected").inc()
            return
        req.admitted, req.timeout = True, self.request_timeout
        if req.timeout is not None and req.entry.capped:
            # Cap the worker's cooperative deadline by the server-side
            # timeout so a timed-out ask *stops* (degrading through the
            # session's fallback chain) instead of running on as a
            # zombie after its client already got the timeout reply.
            cap_ms = req.timeout * 1000.0
            if not isinstance(deadline_ms, (int, float)) or deadline_ms > cap_ms:
                req.frame = {**req.frame, "deadline_ms": cap_ms}

    def _run_op(self, req: _Request) -> None:
        """Leave the handler's run pending; a keyed run is first entered
        in the volatile map as the in-flight future its replays share."""
        req.pending = functools.partial(self._work, req)
        if req.key is not None:
            future: Future = Future()
            self._idempotency.put(req.key, future)
            req.pending = functools.partial(self._keyed_run, req, future)

    def _work(self, req: _Request) -> dict[str, Any]:
        """The run itself, on whichever thread waits on the request."""
        party = req.conn.party
        if not req.admitted:
            return self._reply_of(req.op, req.entry.handler, party, req.frame)
        started = time.perf_counter()
        try:
            with get_tracer().span(
                "server.request",
                op=req.op,
                session=party.id,
                user=party.context.user,
                purpose=party.context.purpose,
                seq=party.seq,
            ):
                return self._reply_of(
                    req.op, req.entry.handler, party, req.frame
                )
        finally:
            self._finish(time.perf_counter() - started)

    def _keyed_run(self, req: _Request, future: Future) -> dict[str, Any]:
        """Run, then swap the in-flight future for the completed reply (ok
        replies only — a failed attempt must not pin its error as the
        permanent answer for the key) and hand it to the replays waiting."""
        try:
            reply = self._work(req)
        except BaseException as error:
            self._idempotency.drop(req.key)
            future.set_exception(error)
            raise
        if reply.get("ok", False):
            self._idempotency.put(req.key, reply)
        else:
            self._idempotency.drop(req.key)
        future.set_result(reply)
        return reply

    def _admit(self, op: str, deadline_ms: Any) -> None:
        """Gate one request; raises its refusal, else takes a pool slot.

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
        if deadline_ms is not None and not is_deadline(deadline_ms):
            raise ProtocolError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        if self._draining:
            raise ServerError(
                f"{op} rejected: server is draining (in-flight work is "
                f"finishing; no new work is accepted)",
                code="ServerDrainingError",
                retryable=True,
            )
        with self._admission_lock:
            queue_depth = self._inflight
            priority = self._ops[op].priority
            multiplier = self.shed_multipliers.get(priority)
            if multiplier is not None:
                limit = max(1, int(self.workers * multiplier))
                if queue_depth >= limit:
                    metrics.counter("server.shed").inc()
                    raise ServerError(
                        f"{op} shed: {queue_depth} request(s) in flight >= "
                        f"the class-{priority} limit of {limit} "
                        f"({self.workers} worker(s) x {multiplier:g})",
                        code="OverloadError",
                        retryable=True,
                        op=str(op),
                        priority=priority,
                        queue_depth=queue_depth,
                        limit=limit,
                    )
            if deadline_ms is not None:
                projected = (
                    queue_depth * self._service_ewma / max(1, self.workers)
                )
                if projected > float(deadline_ms) / 1000.0:
                    raise ServerError(
                        f"{op} rejected at admission: projected queue wait "
                        f"{projected * 1000.0:.1f} ms exceeds the "
                        f"{float(deadline_ms):g} ms deadline "
                        f"({queue_depth} request(s) in flight)",
                        code="AdmissionError",
                        retryable=True,
                        deadline_ms=float(deadline_ms),
                        projected_wait_ms=projected * 1000.0,
                        queue_depth=queue_depth,
                    )
            self._inflight += 1
            metrics.gauge("server.queue_depth").set(self._inflight)
        metrics.counter("server.requests").inc()

    def _finish(self, elapsed_seconds: float) -> None:
        metrics = get_metrics()
        with self._admission_lock:
            self._inflight -= 1
            if self._draining and self._quiescent():
                self._quiesced.notify_all()
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
        if not is_number(fraction):
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
            "rows": [list(values) for values in result.rows],
            "confidences": result.confidences,
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
            # The commit already recorded the key (before this wait): if
            # the semi-sync wait times out and the client retries, the
            # retry hits the durable replay path, not the statement.
            self._confirm_replicated(seq)
            return {"ok": True, "result": str(result), "seq": seq}
        return {
            "ok": True,
            "columns": list(result.schema.names),
            "rows": [list(values) for values in result.values()],
            "confidences": result.confidences(session.db),
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
        if not is_number(min_seq, int) or min_seq < 0:
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


def _stamp(reply: dict[str, Any], rid: Any) -> dict[str, Any]:
    """Echo the client's request id so retrying clients can discard
    stale/duplicated replies on a reused connection."""
    if rid is None:
        return reply
    return {**reply, "rid": rid}


def _error_reply(error: ReproError) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "type": error.code,
        "message": str(error),
    }
    if isinstance(error, ServerError):
        payload["retryable"] = error.retryable
        payload.update(error.details())
    return {"ok": False, "error": payload}
