"""Audit-grade decision provenance for policy-compliant query evaluation.

The paper's contract is that a result tuple is released only when its
lineage-derived confidence clears the policy threshold β — this package
records *why* each release/block decision was made, durably enough to
survive a crash and deterministically enough to be replayed:

* :class:`AuditLog` — an append-only journal of per-decision records
  (policy ⟨role, purpose, β⟩, computed confidence, contributing base-tuple
  lineage, verdict, and any increment write-back that changed it), framed
  through the same checksummed write-ahead-log discipline as the storage
  layer (`docs/ROBUSTNESS.md`): length-prefixed CRC32C records with
  torn-tail truncation on read.
* :func:`read_audit_log` / :class:`AuditTrail` — replay the journal into
  per-query decision trails.
* :func:`explain_decision` — the deterministic explanation behind one
  (query, tuple) decision, the CLI's ``audit explain``.

Enable auditing by passing an :class:`AuditLog` to
:class:`~repro.core.framework.PCQEngine` (``audit=``) or the shell's
``--audit-log`` flag; see ``docs/OBSERVABILITY.md``.
"""

from .log import AUDIT_SCHEMA_VERSION, AuditLog, read_audit_log
from .explain import (
    AuditTrail,
    build_trails,
    explain_decision,
    reconstruct_decisions,
)

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "AuditLog",
    "read_audit_log",
    "AuditTrail",
    "build_trails",
    "explain_decision",
    "reconstruct_decisions",
]
