"""Replaying the audit journal into deterministic explanations.

:func:`reconstruct_decisions` rebuilds the exact decision records a live
run produced (the byte-identity contract behind ``benchmarks/obs_smoke``),
and :func:`explain_decision` renders the full story of one (query, tuple)
pair — policy triple, confidence vs β, contributing lineage, and any
increment write-back that changed the verdict — from nothing but the log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ...errors import ReproError

__all__ = [
    "AuditTrail",
    "build_trails",
    "explain_decision",
    "reconstruct_decisions",
]


@dataclass
class AuditTrail:
    """Every record of one query, grouped for replay."""

    query_id: str
    query: dict[str, Any] | None = None
    decisions: list[dict[str, Any]] = field(default_factory=list)
    increments: list[dict[str, Any]] = field(default_factory=list)
    outcome: dict[str, Any] | None = None

    def phases(self, tuple_id: str) -> list[dict[str, Any]]:
        """The tuple's decision records in phase order (append order)."""
        return [
            record
            for record in self.decisions
            if record["tuple_id"] == tuple_id
        ]


def build_trails(records: list[dict[str, Any]]) -> dict[str, AuditTrail]:
    """Group raw journal records into per-query trails, in append order."""
    trails: dict[str, AuditTrail] = {}
    for record in records:
        query_id = record.get("query_id")
        if not query_id:
            continue
        trail = trails.setdefault(query_id, AuditTrail(query_id))
        kind = record.get("kind")
        if kind == "query":
            trail.query = record
        elif kind == "decision":
            trail.decisions.append(record)
        elif kind == "increment":
            trail.increments.append(record)
        elif kind == "outcome":
            trail.outcome = record
    return trails


def reconstruct_decisions(
    records: list[dict[str, Any]], query_id: str
) -> list[bytes]:
    """The query's decision records re-encoded canonically, in order.

    Byte-identical to what the live run appended: the journal stores the
    canonical encoding (sorted keys, compact separators), so re-encoding a
    replayed record reproduces the original bytes exactly — the acceptance
    check that replay reconstructs every release/block decision.
    """
    trails = build_trails(records)
    if query_id not in trails:
        raise ReproError(
            f"audit log has no query {query_id!r}", code="AuditReplayError"
        )
    return [
        json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
        for record in trails[query_id].decisions
    ]


def explain_decision(
    records: list[dict[str, Any]], query_id: str, tuple_id: str
) -> str:
    """Deterministic, human-readable explanation of one decision.

    Raises ``ReproError`` with code ``AuditReplayError`` when the journal
    has no such query or tuple — an explanation must come from the log,
    never be synthesized.
    """
    trails = build_trails(records)
    trail = trails.get(query_id)
    if trail is None:
        raise ReproError(
            f"audit log has no query {query_id!r}", code="AuditReplayError"
        )
    phases = trail.phases(tuple_id)
    if not phases:
        raise ReproError(
            f"query {query_id} has no decision for tuple {tuple_id!r}",
            code="AuditReplayError",
        )

    lines: list[str] = []
    query = trail.query
    if query is not None:
        lines.append(
            f"query {query_id}: user={query['user']} "
            f"policy=⟨{query['role']}, {query['purpose']}, "
            f"β={query['threshold']:g}⟩ "
            f"required_fraction={query['required_fraction']:g}"
        )
        lines.append(f"  sql: {query['sql']}")
    for record in phases:
        verdict = record["verdict"]
        comparator = ">" if verdict == "released" else "<="
        lines.append(
            f"{record['phase']}: {tuple_id} {_render_values(record['values'])} "
            f"confidence {record['confidence']:.6g} {comparator} "
            f"β → {verdict}"
        )
        for tid, conf in record["lineage"]:
            lines.append(f"    lineage {tid} confidence={conf:.6g}")
    for increment in trail.increments:
        touched = {
            tid: conf
            for tid, conf in increment["targets"].items()
            if any(
                tid == lineage_id
                for record in phases
                for lineage_id, _conf in record["lineage"]
            )
        }
        state = "applied" if increment["approved"] else "quoted only"
        lines.append(
            f"increment ({state}): cost={increment['cost']:.6g}, "
            f"{len(increment['targets'])} target(s)"
            + (f", {len(touched)} in this tuple's lineage" if touched else "")
        )
        for tid, conf in sorted(touched.items()):
            lines.append(f"    write-back {tid} → {conf:.6g}")
    if len(phases) >= 2:
        first, last = phases[0], phases[-1]
        if first["verdict"] != last["verdict"]:
            lines.append(
                f"verdict changed: {first['verdict']} → {last['verdict']} "
                f"(confidence {first['confidence']:.6g} → "
                f"{last['confidence']:.6g})"
            )
        else:
            lines.append(f"verdict unchanged across phases: {last['verdict']}")
    if trail.outcome is not None:
        outcome = trail.outcome
        lines.append(
            f"outcome: {outcome['status']} "
            f"(released={outcome['released']}, withheld={outcome['withheld']}, "
            f"shortfall={outcome['shortfall']})"
        )
    return "\n".join(lines)


def _render_values(values: list[Any]) -> str:
    rendered = ", ".join("NULL" if v is None else str(v) for v in values)
    return f"({rendered})"
