"""Per-connection sessions: a pinned snapshot plus a policy context.

A :class:`Session` is what one client connection holds between frames:

* a :class:`~repro.server.mvcc.Snapshot` pin, so every query the session
  runs observes one immutable database state until the session refreshes
  (or commits a write of its own — writes are read-your-own-writes);
* a ⟨user, role, purpose⟩ **policy context** resolved against the policy
  store once at session start, carried through spans and audit fields;
* the PCQE configuration (solver, engine mode) its ``ask``s run with.

The :class:`SessionDatabase` facade is what actually gets handed to
:class:`~repro.core.PCQEngine`: reads delegate to the session's *current*
pinned generation, while confidence write-backs (the improvement step of
an approved increment plan) commit through the MVCC layer and re-pin —
so a session that pays for improvement immediately sees it, and nobody
else's pinned snapshot moves.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from ..core import PCQEngine, PCQEResult, QueryRequest, greedy_fallback
from ..engines import DEFAULT_ENGINE, check_engine
from ..errors import ServerError, WriteBackConflictError
from ..policy import PolicyStore
from ..storage.tuples import StoredTuple, TupleId
from .mvcc import MVCCDatabase, Snapshot, SnapshotTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.audit import AuditLog
    from ..sql import DmlResult

__all__ = ["Session", "SessionContext", "SessionDatabase"]

_session_ids = itertools.count(1)


class SessionContext:
    """The ⟨user, role, purpose⟩ triple a session's requests run under."""

    __slots__ = ("user", "roles", "purpose")

    def __init__(self, user: str, roles: tuple[str, ...], purpose: str) -> None:
        self.user = user
        self.roles = roles
        self.purpose = purpose

    @property
    def role(self) -> str:
        """Display form of the role set (sessions may hold several)."""
        return ",".join(self.roles) if self.roles else "(none)"

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"SessionContext(user={self.user!r}, roles={self.roles!r}, "
            f"purpose={self.purpose!r})"
        )


class SessionDatabase:
    """Database facade bound to a session's current snapshot.

    Reads always go to the generation the session has pinned *now*;
    :meth:`apply_confidences` commits through MVCC and re-pins, giving
    the session read-your-own-writes without disturbing other pins.
    """

    def __init__(self, session: "Session") -> None:
        self._session = session

    @property
    def _db(self):
        return self._session._snapshot().db

    @property
    def name(self) -> str:
        return self._db.name

    @property
    def seq(self) -> int:
        return self._db.seq

    @property
    def is_durable(self) -> bool:
        return self._db.is_durable

    @property
    def plan_cache(self):
        return self._db.plan_cache

    # -- reads (delegate to the pinned generation) -------------------------

    def table(self, name: str) -> SnapshotTable:
        quarantine = self._session.quarantine
        if quarantine and name.lower() in quarantine:
            raise ServerError(
                f"table {name!r} is quarantined on this replica pending "
                f"resync (scrub found a fingerprint divergence)",
                code="QuarantinedTableError",
                retryable=True,
                table=name.lower(),
            )
        return self._db.table(name)

    def has_table(self, name: str) -> bool:
        return self._db.has_table(name)

    def tables(self) -> Iterator[SnapshotTable]:
        return self._db.tables()

    def table_names(self) -> list[str]:
        return self._db.table_names()

    def view_definition(self, name: str) -> str | None:
        return self._db.view_definition(name)

    def view_names(self) -> list[str]:
        return self._db.view_names()

    def resolve(self, tid: TupleId) -> StoredTuple:
        return self._db.resolve(tid)

    def confidence_of(self, tid: TupleId) -> float:
        return self._db.confidence_of(tid)

    def confidences(self, tids: Iterable[TupleId]) -> dict[TupleId, float]:
        return self._db.confidences(tids)

    def column_confidences(self, tids: Sequence[TupleId]) -> list[float]:
        return self._db.column_confidences(tids)

    # -- the one sanctioned write ------------------------------------------

    def apply_confidences(
        self,
        updates: Mapping[TupleId, float],
        read: Mapping[TupleId, float] | None = None,
    ) -> None:
        """Commit a confidence write-back and advance this session's pin.

        This is the improvement step of an approved increment plan: it
        must actually land in the shared database (and the WAL), and the
        paying session must see it on re-evaluation — so the commit goes
        through MVCC and the session re-pins the resulting generation.
        Other sessions' pinned snapshots are unaffected until they
        refresh.

        The strategy was solved on the pin, so its *read* confidences are
        checked against the head inside the commit.  When another commit
        changed one, nothing is written, the session re-pins and the
        retryable :class:`~repro.errors.WriteBackConflictError` propagates:
        a retried ask re-solves on the head.
        """
        try:
            self._session.commit(lambda db: db.apply_confidences(updates, read))
        except WriteBackConflictError:
            self._session.refresh()
            raise

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"SessionDatabase({self._session!r})"


class Session:
    """One client's pinned view of the database plus its policy context.

    Thread-compatible: the server runs at most one request per session at
    a time (requests on one connection are processed in arrival order),
    but different sessions run fully in parallel on the worker pool.
    """

    def __init__(
        self,
        mvcc: MVCCDatabase,
        policies: PolicyStore,
        user: str,
        purpose: str,
        *,
        solver: str = "greedy",
        engine: str = DEFAULT_ENGINE,
        fallback: "tuple[str, ...] | None" = None,
        client_id: str | None = None,
        read_only: bool = False,
        quarantine: "set[str] | None" = None,
        audit: "AuditLog | None" = None,
    ) -> None:
        roles = tuple(sorted(policies.user(user).roles))
        self.id = next(_session_ids)
        self.context = SessionContext(user, roles, purpose)
        self.policies = policies
        self.solver = solver
        self.engine = check_engine(engine)
        #: Degradation hops for deadline-pressed asks (the default rule is
        #: :func:`~repro.core.greedy_fallback`'s).
        self.fallback: tuple[str, ...] = (
            greedy_fallback(solver) if fallback is None else tuple(fallback)
        )
        #: Stable client identity for idempotency dedup: a reconnecting
        #: retry presents the same id, so its keys match across sessions.
        self.client_id = client_id or f"session-{self.id}"
        #: Replica mode: every mutation path raises NotPrimaryError.
        self.read_only = read_only
        #: Shared (with the server) set of lowercase quarantined table
        #: names; the planner touches every referenced table through
        #: SessionDatabase.table, so enforcement is exact.
        self.quarantine: "set[str]" = (
            quarantine if quarantine is not None else set()
        )
        #: Journal every ask of this session writes its trail to.
        self.audit = audit
        self._mvcc = mvcc
        self._lock = threading.Lock()
        self._handle: Snapshot | None = mvcc.snapshot()
        self.db = SessionDatabase(self)

    # -- snapshot management -----------------------------------------------

    def _snapshot(self) -> Snapshot:
        handle = self._handle
        if handle is None:
            raise ServerError(f"session {self.id} is closed", code="SessionClosedError")
        return handle

    @property
    def seq(self) -> int:
        """The generation this session currently observes."""
        return self._snapshot().seq

    def refresh(self) -> int:
        """Re-pin the latest generation; returns the new ``seq``."""
        with self._lock:
            self._handle = self._mvcc.refresh(self._snapshot())
            return self._handle.seq

    def ensure_seq(self, min_seq: int, wait_s: float = 0.0) -> int:
        """Guarantee this session observes at least generation *min_seq*.

        The read-your-writes contract: a client that wrote at seq N and
        reconnected to a replica must not see pre-N state.  Refreshes the
        pin if the node is already there; otherwise waits up to *wait_s*
        for replication to catch up, then raises the retryable
        ``ReplicaLagError`` so the client can try elsewhere.
        """
        if self.seq >= min_seq:
            return self.seq
        if self._mvcc.current_seq >= min_seq or (
            wait_s > 0 and self._mvcc.wait_for_seq(min_seq, wait_s)
        ):
            return self.refresh()
        raise ServerError(
            f"replica is at seq {self._mvcc.current_seq}, request requires "
            f"{min_seq} (waited {wait_s * 1000:.0f} ms)",
            code="ReplicaLagError",
            retryable=True,
            min_seq=min_seq,
            position=self._mvcc.current_seq,
            waited_ms=wait_s * 1000.0,
        )

    def commit(self, mutate) -> Any:
        """Run a mutation through MVCC, then advance this session's pin."""
        self._snapshot()  # closed-session check before touching storage
        if self.read_only:
            raise ServerError(
                f"session {self.id} is bound to a read-only replica; "
                f"writes must go to the primary",
                code="NotPrimaryError",
                rotate=True,
                role="replica",
                epoch=0,
            )
        result = self._mvcc.commit(mutate)
        self.refresh()
        return result

    def close(self) -> None:
        """Release the snapshot pin (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.release()
                self._handle = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries -------------------------------------------------------------

    def ask(
        self,
        sql: str,
        required_fraction: float = 1.0,
        *,
        profile: bool = False,
        deadline_ms: float | None = None,
    ) -> PCQEResult:
        """Run the full PCQE pipeline against this session's snapshot."""
        engine = PCQEngine(
            self.db,
            self.policies,
            solver=self.solver,
            fallback=self.fallback,
            engine=self.engine,
            audit=self.audit,
        )
        request = QueryRequest(
            sql,
            self.context.purpose,
            required_fraction,
            profile=profile,
            deadline_ms=deadline_ms,
        )
        return engine.execute(request, user=self.context.user)

    def run_sql(self, sql: str, *, idempotency: str | None = None):
        """Run one SQL statement.

        SELECTs read the pinned snapshot; DML/DDL commits through MVCC
        (one WAL batch) and advances this session's pin so the statement
        is immediately visible to its own connection.  When *idempotency*
        is given, a dedup marker is journaled inside the same WAL record;
        committing (or replaying) it sets ⟨client, key⟩ → seq in the
        database's exactly-once map, so the pair survives whatever the
        write survives — crash recovery, a checkpoint, replication — and a
        retry after failover is deduplicated on the promoted primary too.
        """
        from ..sql import prepare

        prepared = prepare(self.db, sql)
        if prepared.plan is not None:
            return prepared.run(self.db, self.engine)

        def mutate(db):
            result = prepared.run(db, self.engine)
            if idempotency is not None:
                db._journal(
                    {
                        "op": "idempotency",
                        "client": self.client_id,
                        "key": idempotency,
                    }
                )
            return result

        return self.commit(mutate)

    def __repr__(self) -> str:  # pragma: no cover - display only
        handle = self._handle
        seq = handle.seq if handle is not None else "closed"
        return (
            f"Session(id={self.id}, user={self.context.user!r}, "
            f"purpose={self.context.purpose!r}, seq={seq})"
        )
