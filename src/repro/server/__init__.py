"""Concurrent multi-session serving for the PCQE.

Layers, bottom up:

* :mod:`~repro.server.mvcc` — copy-on-write table generations keyed by
  the WAL ``seq``; snapshot isolation with pin-count GC.
* :mod:`~repro.server.session` — per-connection sessions: a pinned
  snapshot, a ⟨user, role, purpose⟩ policy context, read-your-own-writes.
* :mod:`~repro.server.protocol` — length-prefixed JSON frames.
* :mod:`~repro.server.server` — the asyncio socket server: one op
  table, one staged request pipeline, deadline-based
  admission control and obs instrumentation.
* :mod:`~repro.server.client` — the one wire link and the two blocking
  clients over it (CLI / tests / benchmarks): the raw
  :class:`ServerClient` and the retrying idempotent
  :class:`RetryingClient`.
* :mod:`~repro.server.faults` — deterministic, seeded network fault
  injection for chaos testing the layers above.
* :mod:`~repro.server.replication` — WAL-shipping replication: replica
  nodes, epoch-fenced failover, and the online integrity scrubber.

See ``docs/SERVING.md`` for the protocol and semantics, and
``docs/ROBUSTNESS.md`` ("Serving under failure") for the failure model.
"""

from .client import (
    RetryingClient,
    ServerClient,
    ServerReplyError,
)
from .faults import (
    NETWORK_FAULT_POINTS,
    REPLICATION_FAULT_POINTS,
    FaultAction,
    FaultySocket,
    NetworkFaultInjector,
    NetworkFaultSpec,
    iter_network_fault_specs,
    iter_replication_fault_specs,
)
from .mvcc import MVCCDatabase, Snapshot, SnapshotDatabase, SnapshotTable
from .protocol import MAX_FRAME_BYTES, encode_frame, recv_frame, send_frame
from .server import PRIORITY_CLASSES, PCQEServer
from .session import Session, SessionContext, SessionDatabase
from .replication import PrimaryReplication, ReplicationFeed
from .replication.replica import Replica
from .replication.scrub import Scrubber

__all__ = [
    "MVCCDatabase",
    "Snapshot",
    "SnapshotDatabase",
    "SnapshotTable",
    "Session",
    "SessionContext",
    "SessionDatabase",
    "PCQEServer",
    "PRIORITY_CLASSES",
    "ServerClient",
    "ServerReplyError",
    "RetryingClient",
    "NetworkFaultInjector",
    "NetworkFaultSpec",
    "FaultAction",
    "FaultySocket",
    "NETWORK_FAULT_POINTS",
    "REPLICATION_FAULT_POINTS",
    "iter_network_fault_specs",
    "iter_replication_fault_specs",
    "PrimaryReplication",
    "ReplicationFeed",
    "Replica",
    "Scrubber",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "recv_frame",
    "send_frame",
]
