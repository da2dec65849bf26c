"""Exception hierarchy for the PCQE reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Subsystems raise the most
specific subclass that applies; error messages always name the offending
object (table, column, role, tuple id, ...) to make failures actionable.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "TypeMismatchError",
    "UnknownTableError",
    "UnknownColumnError",
    "AmbiguousColumnError",
    "DuplicateTableError",
    "DuplicateColumnError",
    "StorageError",
    "UnknownTupleError",
    "InvalidConfidenceError",
    "DurabilityError",
    "CorruptLogError",
    "CorruptSnapshotError",
    "SqlError",
    "SqlSyntaxError",
    "BindError",
    "PlanError",
    "ExecutionError",
    "LineageError",
    "PolicyError",
    "UnknownRoleError",
    "UnknownUserError",
    "UnknownPurposeError",
    "NoApplicablePolicyError",
    "CostModelError",
    "IncrementError",
    "InfeasibleIncrementError",
    "TimeBudgetExceeded",
    "ImprovementRejectedError",
    "WorkloadError",
    "ServerError",
    "ProtocolError",
    "SessionClosedError",
    "AdmissionError",
    "SnapshotWriteError",
    "OverloadError",
    "RequestTimeoutError",
    "CircuitOpenError",
    "ServerDrainingError",
    "WriteBackConflictError",
    "ReplicationError",
    "NotPrimaryError",
    "ReplicaLagError",
    "StaleEpochError",
    "QuarantinedTableError",
    "ReplicationTimeoutError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


# --------------------------------------------------------------------------
# Schema / catalog
# --------------------------------------------------------------------------


class SchemaError(ReproError):
    """A schema is malformed or used inconsistently."""


class TypeMismatchError(SchemaError):
    """A value does not match the declared column type."""


class UnknownTableError(SchemaError):
    """A referenced table does not exist in the catalog."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in the schema in scope."""


class AmbiguousColumnError(SchemaError):
    """An unqualified column name matches more than one column in scope."""


class DuplicateTableError(SchemaError):
    """A table with the same name is already registered."""


class DuplicateColumnError(SchemaError):
    """A schema declares the same column name twice."""


# --------------------------------------------------------------------------
# Storage
# --------------------------------------------------------------------------


class StorageError(ReproError):
    """Low-level storage failure."""


class UnknownTupleError(StorageError):
    """A tuple id does not identify a stored tuple."""


class InvalidConfidenceError(StorageError, ValueError):
    """A confidence value lies outside [0, 1] or above the tuple's cap."""


class DurabilityError(StorageError):
    """Base class for crash-safe persistence failures (WAL / snapshots)."""


class CorruptLogError(DurabilityError):
    """A write-ahead-log record failed its checksum or framing checks.

    Raised when corruption is found *before* the log's tail — a damaged
    record followed by intact ones cannot be a torn write, so recovery
    refuses to guess.  A damaged record at the very tail is treated as a
    torn write and truncated instead (see ``docs/ROBUSTNESS.md``).
    """


class CorruptSnapshotError(DurabilityError):
    """A snapshot file failed its magic, framing, or checksum checks."""


# --------------------------------------------------------------------------
# SQL front end and execution
# --------------------------------------------------------------------------


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class BindError(SqlError):
    """Name resolution or type checking of a parsed query failed."""


class PlanError(SqlError):
    """A bound query could not be converted into an executable plan."""


class ExecutionError(ReproError):
    """A plan failed at execution time (e.g. division by zero)."""


# --------------------------------------------------------------------------
# Lineage
# --------------------------------------------------------------------------


class LineageError(ReproError):
    """A lineage formula is malformed or cannot be evaluated."""


# --------------------------------------------------------------------------
# Policy
# --------------------------------------------------------------------------


class PolicyError(ReproError):
    """Base class for policy-engine errors."""


class UnknownRoleError(PolicyError):
    """A referenced role is not registered."""


class UnknownUserError(PolicyError):
    """A referenced user is not registered."""


class UnknownPurposeError(PolicyError):
    """A referenced purpose is not registered."""


class NoApplicablePolicyError(PolicyError):
    """No confidence policy covers the (role, purpose) pair and the store
    is configured to deny by default."""


# --------------------------------------------------------------------------
# Cost models and confidence increment
# --------------------------------------------------------------------------


class CostModelError(ReproError):
    """A cost model is misconfigured or asked for an invalid increment."""


class IncrementError(ReproError):
    """Base class for strategy-finding errors."""


class InfeasibleIncrementError(IncrementError):
    """No assignment of confidence values can satisfy the requirement,
    even raising every base tuple to its maximum confidence."""


class TimeBudgetExceeded(IncrementError):
    """A solver's time/node/probe budget ran out before any feasible plan
    was found.

    ``algorithm`` names the solver that gave up; ``partial`` (a
    :class:`~repro.increment.runtime.PartialProgress`, when available)
    records the assignment built so far, its cost, and how many required
    results it already satisfied.  Solvers that *do* hold a feasible
    incumbent at exhaustion return it instead of raising (the anytime
    contract); this error means even that was impossible in the budget.
    """

    def __init__(
        self,
        message: str,
        *,
        algorithm: str = "",
        partial: object | None = None,
    ) -> None:
        super().__init__(message)
        self.algorithm = algorithm
        self.partial = partial


class ImprovementRejectedError(IncrementError):
    """The user (or approval hook) declined the proposed increment cost."""


# --------------------------------------------------------------------------
# Workload generation
# --------------------------------------------------------------------------


class WorkloadError(ReproError):
    """A synthetic-workload specification is invalid."""


# --------------------------------------------------------------------------
# Serving
# --------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for the multi-session serving layer.

    ``retryable`` classifies the error for clients: ``True`` means the
    request itself was fine and a later retry may succeed (admission,
    overload, drain, breaker); ``False`` means retrying the identical
    request will fail the identical way (bad frame, bad SQL, unknown
    user).  The flag travels over the wire in every error reply so
    clients never have to keep a hard-coded type list.

    ``fields`` names, once per class, the structured values behind the
    decision: each is a keyword-only constructor argument (required
    unless the class gives it a default as a class attribute), an
    attribute of the instance, and — in declaration order — an entry of
    ``details()``, which contributes them to the wire payload.
    """

    retryable: bool = False
    fields: "tuple[str, ...]" = ()

    def __init__(self, *args: object, **fields: object) -> None:
        super().__init__(*args)
        cls = type(self)
        unknown = [name for name in fields if name not in cls.fields]
        missing = [
            name
            for name in cls.fields
            if name not in fields and not hasattr(cls, name)
        ]
        if unknown or missing:
            raise TypeError(
                f"{cls.__name__}() keyword arguments must be "
                f"{cls.fields}: unknown {unknown}, missing {missing}"
            )
        for name, value in fields.items():
            setattr(self, name, value)

    def details(self) -> dict:
        """Structured fields merged into the wire error payload."""
        return {name: getattr(self, name) for name in self.fields}


class ProtocolError(ServerError):
    """A wire frame was malformed (bad length, bad JSON, unknown op)."""


class SessionClosedError(ServerError):
    """An operation was attempted on a closed session."""


class SnapshotWriteError(ServerError):
    """A mutation was attempted directly on an immutable snapshot view.

    Writes go through :meth:`repro.server.MVCCDatabase.commit`; snapshot
    views only ever change by re-pinning a newer generation.
    """


class AdmissionError(ServerError):
    """A request was rejected at admission: the queue's projected wait
    already exceeds the request's deadline, so running it could only
    produce a late answer.  Carries the numbers behind the decision so
    clients can back off intelligently.
    """

    retryable = True
    fields = ("deadline_ms", "projected_wait_ms", "queue_depth")


class OverloadError(ServerError):
    """A request was shed by the load shedder: the server is over its
    capacity for the request's priority class even before any deadline
    math.  Lower-priority classes (``ask``) shed first; higher ones
    (``metrics``) keep working so operators can still see what is
    happening.
    """

    retryable = True
    fields = ("op", "priority", "queue_depth", "limit")


class RequestTimeoutError(ServerError):
    """The server-side per-request timeout expired before the handler
    finished.  For mutating requests the outcome is ambiguous — the
    handler may still complete after this reply — which is exactly what
    client idempotency keys exist to absorb.
    """

    retryable = True
    fields = ("op", "timeout_ms")


class CircuitOpenError(ServerError):
    """The connection's circuit breaker is open after repeated handler
    failures; requests are rejected fast (no queueing, no worker) until
    the cooldown elapses and a half-open probe succeeds.
    """

    retryable = True
    fields = ("failures", "retry_after_ms")


class ServerDrainingError(ServerError):
    """The server is draining for shutdown: in-flight requests finish,
    new ones are rejected.  Retryable in the sense that another replica
    (or the restarted server) can serve the request.
    """

    retryable = True


class WriteBackConflictError(ServerError):
    """A confidence write-back was refused and wrote nothing: a base tuple
    its strategy read has another confidence at the head, because a
    commit landed after the asking session pinned.  The strategy was
    solved and quoted against values that no longer hold.  Retryable —
    the refusing session re-pins, so a retried ask re-solves on the head.
    """

    retryable = True
    fields = ("changed",)


# --------------------------------------------------------------------------
# Replication
# --------------------------------------------------------------------------


class ReplicationError(ServerError):
    """Base class for WAL-shipping replication failures."""


class NotPrimaryError(ReplicationError):
    """A write (or other primary-only operation) reached a read-only
    replica.  Terminal for *this* endpoint but not for the request:
    the reply carries ``rotate: true`` so a multi-endpoint client moves
    to the next endpoint instead of burning its backoff budget here.
    """

    fields = ("role", "epoch")
    role = "replica"
    epoch = 0

    def details(self) -> dict:
        return {"rotate": True, **super().details()}


class ReplicaLagError(ReplicationError):
    """A read-your-writes request asked for a replication position this
    replica has not reached within the configured wait.  Retryable: the
    replica keeps applying, or another endpoint may already be there.
    """

    retryable = True
    fields = ("min_seq", "position", "waited_ms")


class StaleEpochError(ReplicationError):
    """A replication message carried an epoch older than the receiver's.

    Epoch fencing: after a failover, the promoted primary's epoch is
    higher than the deposed one's, so frames (or pulls) from the old
    regime are rejected instead of silently diverging the log.
    """

    fields = ("stale_epoch", "current_epoch")


class QuarantinedTableError(ReplicationError):
    """The scrubber found this table's fingerprint diverging from the
    primary's; it is quarantined until resync completes.  Retryable —
    resync is already in flight, and other endpoints can serve it now.
    """

    retryable = True
    fields = ("table",)


class ReplicationTimeoutError(ReplicationError):
    """A commit could not be acknowledged by the configured number of
    sync replicas in time.  The write is durable on the primary and
    will replicate; retrying with the same idempotency key is safe and
    simply re-waits for acknowledgement.
    """

    retryable = True
    fields = ("seq", "required", "acked")
