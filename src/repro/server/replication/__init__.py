"""WAL-shipping replication: primary feed, replicas, failover, scrubbing.

The moving parts (see docs/SERVING.md for the topology):

* :class:`~repro.server.replication.feed.PrimaryReplication` — attached
  to every durable :class:`~repro.server.server.PCQEServer`; retains the
  WAL tail in memory and tracks replica acknowledgements for
  semi-synchronous commits.
* :class:`~repro.server.replication.replica.Replica` — a read-only node
  that pulls committed frames, applies them through the recovery path,
  serves snapshot reads, and can be promoted to primary with a fenced
  epoch.
* :class:`~repro.server.replication.scrub.Scrubber` — the online
  integrity loop re-verifying on-disk checksums and cross-checking
  table fingerprints against the primary, quarantining divergence.
* :mod:`~repro.server.replication.reconcile` — pure divergence math
  shared with the property tests.
"""

from .epoch import EPOCH_FILE, load_epoch, store_epoch
from .feed import PrimaryReplication, ReplicationFeed
from .reconcile import divergence_point


def __getattr__(name: str):
    # Replica/Scrubber import the server (which imports this package for
    # the feed): resolve them lazily to keep the import graph acyclic.
    if name == "Replica":
        from .replica import Replica

        return Replica
    if name == "Scrubber":
        from .scrub import Scrubber

        return Scrubber
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "EPOCH_FILE",
    "load_epoch",
    "store_epoch",
    "PrimaryReplication",
    "ReplicationFeed",
    "divergence_point",
    "Replica",
    "Scrubber",
]
