"""Exception types for the PCQE reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Only the types some handler
catches are classes; every finer condition is one of them raised with a
``code`` (``SchemaError(..., code="UnknownTableError")``).  The code is
what the wire reply's ``type`` carries, and docs/SERVING.md lists every
code with the class it is raised as.  Error messages always name the
offending object (table, column, role, tuple id, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "TypeMismatchError",
    "UnknownColumnError",
    "AmbiguousColumnError",
    "InvalidConfidenceError",
    "DurabilityError",
    "CorruptLogError",
    "BindError",
    "PlanError",
    "ExecutionError",
    "IncrementError",
    "InfeasibleIncrementError",
    "TimeBudgetExceeded",
    "ServerError",
    "ProtocolError",
    "WriteBackConflictError",
    "ReplicationTimeoutError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library.

    ``code`` names the condition: the class name unless the raise site
    passes ``code=``.  Every other keyword argument is a structured
    field: an attribute of the instance and, in the order given, an
    entry of :meth:`details`.
    """

    def __init__(
        self, *args: object, code: str | None = None, **fields: object
    ) -> None:
        super().__init__(*args)
        self.code = code or type(self).__name__
        self.__dict__.update(fields)
        self._fields = tuple(fields)

    def details(self) -> dict:
        """The structured fields, in the order the raise site gave them."""
        return {name: getattr(self, name) for name in self._fields}


# --------------------------------------------------------------------------
# Schema / catalog
# --------------------------------------------------------------------------


class SchemaError(ReproError):
    """A schema is malformed or used inconsistently."""


class TypeMismatchError(SchemaError):
    """A value does not match the declared column type."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in the schema in scope."""


class AmbiguousColumnError(SchemaError):
    """An unqualified column name matches more than one column in scope."""


# --------------------------------------------------------------------------
# Storage
# --------------------------------------------------------------------------


class InvalidConfidenceError(ReproError, ValueError):
    """A confidence is not a number, lies outside [0, 1], or lies above
    the tuple's cap.  Also a :class:`ValueError`, so a caller's plain
    ``except ValueError`` still catches it."""


class DurabilityError(ReproError):
    """Base class for crash-safe persistence failures (WAL / snapshots)."""


class CorruptLogError(DurabilityError):
    """A write-ahead-log record failed its checksum or framing checks.

    Raised when corruption is found *before* the log's tail — a damaged
    record followed by intact ones cannot be a torn write, so recovery
    refuses to guess.  A damaged record at the very tail is treated as a
    torn write and truncated instead (see ``docs/ROBUSTNESS.md``).
    """


# --------------------------------------------------------------------------
# SQL front end and execution
# --------------------------------------------------------------------------


class BindError(ReproError):
    """Name resolution or type checking of a parsed query failed."""


class PlanError(ReproError):
    """A bound query could not be converted into an executable plan."""


class ExecutionError(ReproError):
    """A plan failed at execution time (e.g. division by zero)."""


# --------------------------------------------------------------------------
# Confidence increment
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# Serving and replication
# --------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for the multi-session serving layer.

    ``retryable`` classifies the error for clients: ``True`` means the
    request itself was fine and a later retry may succeed (admission,
    overload, drain, breaker); ``False`` means retrying the identical
    request will fail the identical way (bad frame, bad SQL, unknown
    user).  It is a class default that a raise site may override by
    keyword.  The flag and :meth:`details` travel over the wire in every
    error reply, so clients never keep a hard-coded type list.
    """

    retryable: bool = False

    def __init__(
        self, *args: object, retryable: bool | None = None, **fields: object
    ) -> None:
        super().__init__(*args, **fields)
        if retryable is not None:
            self.retryable = retryable


class ProtocolError(ServerError):
    """A wire frame was malformed (bad length, bad JSON, unknown op)."""


class WriteBackConflictError(ServerError):
    """A confidence write-back was refused and wrote nothing: a base tuple
    its strategy read has another confidence at the head, because a
    commit landed after the asking session pinned.  The strategy was
    solved and quoted against values that no longer hold.  Retryable —
    the refusing session re-pins, so a retried ask re-solves on the head.
    """

    retryable = True


class ReplicationTimeoutError(ServerError):
    """A commit could not be acknowledged by the configured number of
    sync replicas in time (fields ``seq``, ``required``, ``acked``).  The
    write is durable on the primary and will replicate; retrying with
    the same idempotency key is safe and simply re-waits for
    acknowledgement.
    """

    retryable = True
