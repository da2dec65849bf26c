"""JSON codec for logical operations, schemas, and cost models.

The WAL and snapshots persist *logical* state — "insert these values with
this confidence and cost model into table T at ordinal i" — not physical
bytes, so the format survives refactors of the in-memory layout.  This
module is the single place that knows how to turn the storage layer's
objects into JSON-able primitives and back.

Value encoding is trivial (the engine's scalar types are JSON's scalar
types: int, float, str, bool, NULL); the interesting cases are
:class:`~repro.cost.CostModel` instances (encoded as ``{"kind": ...}``
discriminated unions) and :class:`~repro.storage.schema.Schema` columns.

Operation kinds are listed at :data:`OP_KINDS`, with which of them are
still written and which are only read.  A record's size is what every
later stage pays for — the primary's checksum and fsync, the replication
feed's byte budget, the replica's checksum and replay — so the one
row-set kind, ``update_rows``, is columnar: ordinals, then one value
list per *assigned* column, then one confidence or one per row.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

from ...cost import (
    BinomialCost,
    CostModel,
    ExponentialCost,
    FreeCost,
    LinearCost,
    LogarithmicCost,
    TabulatedCost,
)
from ...errors import CorruptLogError, DurabilityError
from ..schema import Column, Schema
from ..types import DataType

__all__ = [
    "encode_cost_model",
    "decode_cost_model",
    "encode_schema",
    "decode_schema",
    "encode_op",
    "decode_op",
    "decode_record",
    "iter_idempotency_markers",
]


# -- cost models -----------------------------------------------------------


def encode_cost_model(model: CostModel) -> "dict[str, Any] | None":
    """*model* as a JSON-able dict (``None`` for the default free model)."""
    if type(model) is FreeCost:
        if model.max_confidence == 1.0:
            return None
        return {"kind": "free", "max_confidence": model.max_confidence}
    if type(model) is LinearCost:
        return {
            "kind": "linear",
            "rate": model.rate,
            "max_confidence": model.max_confidence,
        }
    if type(model) is BinomialCost:
        return {
            "kind": "binomial",
            "linear": model.linear,
            "quadratic": model.quadratic,
            "max_confidence": model.max_confidence,
        }
    if type(model) is ExponentialCost:
        return {
            "kind": "exponential",
            "scale": model.scale,
            "shape": model.shape,
            "max_confidence": model.max_confidence,
        }
    if type(model) is LogarithmicCost:
        return {
            "kind": "logarithmic",
            "scale": model.scale,
            "saturation": model.saturation,
            "max_confidence": model.max_confidence,
        }
    if type(model) is TabulatedCost:
        return {
            "kind": "tabulated",
            "points": [[p, c] for p, c in model._points],
            "max_confidence": model.max_confidence,
        }
    raise DurabilityError(
        f"cannot persist cost model of type {type(model).__name__}; "
        "durable databases support the built-in cost families"
    )


def decode_cost_model(data: "dict[str, Any] | None") -> CostModel:
    """Inverse of :func:`encode_cost_model`."""
    if data is None:
        return FreeCost()
    kind = data.get("kind")
    cap = data.get("max_confidence", 1.0)
    if kind == "free":
        return FreeCost(max_confidence=cap)
    if kind == "linear":
        return LinearCost(data["rate"], max_confidence=cap)
    if kind == "binomial":
        return BinomialCost(
            data["linear"], data["quadratic"], max_confidence=cap
        )
    if kind == "exponential":
        return ExponentialCost(
            data["scale"], data["shape"], max_confidence=cap
        )
    if kind == "logarithmic":
        return LogarithmicCost(
            data["scale"], data["saturation"], max_confidence=cap
        )
    if kind == "tabulated":
        return TabulatedCost(
            [(p, c) for p, c in data["points"]], max_confidence=cap
        )
    raise DurabilityError(f"unknown cost-model kind {kind!r} in log/snapshot")


# -- schemas ---------------------------------------------------------------


def encode_schema(schema: Schema) -> list[list[Any]]:
    """Schema columns as ``[name, dtype, nullable]`` triples (unqualified)."""
    return [
        [column.name, column.dtype.value, column.nullable]
        for column in schema
    ]


def decode_schema(columns: list[list[Any]]) -> Schema:
    """Inverse of :func:`encode_schema`."""
    try:
        return Schema(
            Column(name, DataType(dtype), nullable=bool(nullable))
            for name, dtype, nullable in columns
        )
    except (ValueError, TypeError) as error:
        raise DurabilityError(
            f"malformed schema in log/snapshot: {error}"
        ) from error


# -- logical operations ----------------------------------------------------

#: Every operation kind the WAL can carry.  ``batch`` wraps a list of
#: sub-operations committed as one atomic record (the ``insert`` /
#: ``delete`` ops of a multi-row ``Table.insert_rows`` / ``delete_rows``,
#: a write-back that spans tables, a statement plus its dedup marker).
#: ``idempotency`` is the marker journaled alongside a keyed write; it
#: sets ⟨client, key⟩ → the record's seq in the database's exactly-once
#: map (``Database.idempotency_keys``), which is therefore replicated
#: state: recovery, replicas and snapshots carry it like any table.
#:
#: ``update_rows`` is "a statement changed these rows of this table" —
#: what every updating writer emits (SQL ``UPDATE``, a strategy's
#: write-back, ``Table.assign_confidences``, the one-row ``Table.update``
#: / ``set_confidence``), columnar so its size follows the rows and
#: columns that changed and nothing else::
#:
#:     {"op": "update_rows", "table": T,
#:      "ordinals":   [o1, o2, …],          # the rows, in statement order
#:      "columns":    [c1, …],              # assigned column positions
#:      "values":     [[v(c1,o1), v(c1,o2), …], …],   # one list per column
#:      "confidence": null | p | [p1, p2, …]}         # keep | uniform | per row
#:
#: ``update`` (one row, the whole value tuple), ``set_confidence``,
#: ``confidences`` (``[table, ordinal, value]`` triples) and
#: ``create_index`` are **read-only legacy**: nothing writes them any
#: more (9 kinds are written), but older logs hold them and replay through
#: the same :func:`~repro.storage.durability.recovery.apply_op` — the
#: first three as ``update_rows`` of one row, the last as no state change
#: (tables keep no secondary index).
OP_KINDS = frozenset(
    {
        "create_table",
        "drop_table",
        "create_view",
        "drop_view",
        "create_index",
        "insert",
        "delete",
        "update",
        "set_confidence",
        "update_rows",
        "confidences",
        "idempotency",
        "batch",
    }
)


def encode_op(op: dict[str, Any]) -> dict[str, Any]:
    """Make an in-memory op dict JSON-able (tuples → lists, models → dicts).

    Call sites build ops with live objects (value tuples, ``CostModel``
    instances); this normalises them for :func:`json.dumps`.
    """
    kind = op.get("op")
    if kind not in OP_KINDS:
        raise DurabilityError(f"unknown operation kind {kind!r}")
    encoded = dict(op)
    if kind == "batch":
        encoded["ops"] = [encode_op(sub) for sub in op["ops"]]
        return encoded
    if "values" in encoded:
        encoded["values"] = list(encoded["values"])
    if "cost_model" in encoded:
        model = encoded["cost_model"]
        encoded["cost_model"] = (
            encode_cost_model(model) if isinstance(model, CostModel) else model
        )
    return encoded


def decode_op(data: dict[str, Any]) -> dict[str, Any]:
    """Validate a decoded JSON op (shape errors become DurabilityError)."""
    kind = data.get("op") if isinstance(data, dict) else None
    if kind not in OP_KINDS:
        raise DurabilityError(f"unknown operation kind {kind!r} in log")
    if kind == "batch":
        subs = data.get("ops")
        if not isinstance(subs, list):
            raise DurabilityError("batch record without an 'ops' list")
        return {"op": "batch", "ops": [decode_op(sub) for sub in subs]}
    return data


def decode_record(payload: bytes) -> "tuple[int, dict[str, Any]]":
    """One log record's payload as ``(seq, op)`` — the one record decoder.

    A record is UTF-8 JSON: an object carrying an integer ``seq`` beside
    the fields of one :func:`decode_op`-valid operation.  Whatever else a
    checksummed payload holds is one outcome, :class:`CorruptLogError`,
    for every reader — recovery raises it, ``fsck`` reports it, a replica
    resyncs on it.
    """
    try:
        raw = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptLogError(f"record is not valid JSON: {error}") from error
    seq = raw.pop("seq", None) if isinstance(raw, dict) else None
    if not isinstance(seq, int):
        raise CorruptLogError(
            "record is not a JSON object with an integer 'seq'"
        )
    try:
        return seq, decode_op(raw)
    except DurabilityError as error:
        raise CorruptLogError(f"record {seq}: {error}") from error


def iter_idempotency_markers(op: dict) -> "Iterator[tuple[str, str]]":
    """Yield every ``(client, key)`` dedup marker inside a decoded op.

    Markers are journaled inside the same WAL record as the write they
    guard (possibly nested in a batch), so whoever commits or replays the
    record learns the key with the write, atomically.
    """
    kind = op.get("op")
    if kind == "idempotency":
        client, key = op.get("client"), op.get("key")
        if isinstance(client, str) and isinstance(key, str):
            yield client, key
    elif kind == "batch":
        for sub in op.get("ops", ()):
            if isinstance(sub, dict):
                yield from iter_idempotency_markers(sub)
