"""Every error code the library raises, in one table.

A code names a refusal on the wire (the reply's ``type``) and on the
exception (``.code``).  Each row below says which class the code is
raised as, its ``retryable`` (``None``: not a ``ServerError``, so the
reply carries none) and its fields, whose order is the wire payload's
key order after ``type``, ``message`` and ``retryable``.  The table is
held against every raise site in ``src/`` (read statically, so a code
no test reaches is still checked), the recorded golden wire frames, and
docs/SERVING.md's error table.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro import errors
from repro.server.server import _error_reply

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

_SERVER_CODES = {
    "ServerError": ("ServerError", False, ()),
    "ProtocolError": ("ProtocolError", False, ()),
    "SessionClosedError": ("ServerError", False, ()),
    "SnapshotWriteError": ("ServerError", False, ()),
    "AdmissionError": (
        "ServerError", True, ("deadline_ms", "projected_wait_ms", "queue_depth")
    ),
    "OverloadError": (
        "ServerError", True, ("op", "priority", "queue_depth", "limit")
    ),
    "RequestTimeoutError": ("ServerError", True, ("op", "timeout_ms")),
    "CircuitOpenError": ("ServerError", True, ("failures", "retry_after_ms")),
    "ServerDrainingError": ("ServerError", True, ()),
    "WriteBackConflictError": ("WriteBackConflictError", True, ("changed",)),
    "NotPrimaryError": ("ServerError", False, ("rotate", "role", "epoch")),
    "ReplicaLagError": (
        "ServerError", True, ("min_seq", "position", "waited_ms")
    ),
    "StaleEpochError": ("ServerError", False, ("stale_epoch", "current_epoch")),
    "QuarantinedTableError": ("ServerError", True, ("table",)),
    "ReplicationTimeoutError": (
        "ReplicationTimeoutError", True, ("seq", "required", "acked")
    ),
}

#: code -> (raised as, retryable, fields)
CODES = {
    "ReproError": ("ReproError", None, ()),
    "SchemaError": ("SchemaError", None, ()),
    "TypeMismatchError": ("TypeMismatchError", None, ()),
    "UnknownColumnError": ("UnknownColumnError", None, ()),
    "AmbiguousColumnError": ("AmbiguousColumnError", None, ()),
    "UnknownTableError": ("SchemaError", None, ()),
    "DuplicateTableError": ("SchemaError", None, ()),
    "DuplicateColumnError": ("SchemaError", None, ()),
    "StorageError": ("ReproError", None, ()),
    "UnknownTupleError": ("ReproError", None, ()),
    "InvalidConfidenceError": ("InvalidConfidenceError", None, ()),
    "DurabilityError": ("DurabilityError", None, ()),
    "CorruptLogError": ("CorruptLogError", None, ()),
    "CorruptSnapshotError": ("DurabilityError", None, ()),
    "SqlError": ("ReproError", None, ()),
    "SqlSyntaxError": ("ReproError", None, ("line", "column")),
    "BindError": ("BindError", None, ()),
    "PlanError": ("PlanError", None, ()),
    "ExecutionError": ("ExecutionError", None, ()),
    "LineageError": ("ReproError", None, ()),
    "PolicyError": ("ReproError", None, ()),
    "UnknownRoleError": ("ReproError", None, ()),
    "UnknownUserError": ("ReproError", None, ()),
    "UnknownPurposeError": ("ReproError", None, ()),
    "NoApplicablePolicyError": ("ReproError", None, ()),
    "CostModelError": ("ReproError", None, ()),
    "IncrementError": ("IncrementError", None, ()),
    "InfeasibleIncrementError": ("InfeasibleIncrementError", None, ()),
    "TimeBudgetExceeded": ("TimeBudgetExceeded", None, ("algorithm", "partial")),
    "ImprovementRejectedError": ("IncrementError", None, ()),
    "WorkloadError": ("ReproError", None, ()),
    "CommandError": ("ReproError", None, ()),
    "PathFlagError": ("PathFlagError", None, ()),
    "OpenMetricsParseError": ("ReproError", None, ()),
    "AuditReplayError": ("ReproError", None, ()),
    "ProvenanceError": ("ReproError", None, ()),
    "RetriesExhaustedError": ("ServerError", False, ("attempts", "last_error")),
    "ServerReplyError": ("ServerReplyError", False, ()),
    **_SERVER_CODES,
}


def _handled_names() -> set[str]:
    """Every class name an ``except`` or an ``isinstance`` in ``src/``
    names."""
    caught = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
            ):
                types = node.args[1]
            else:
                continue
            for name in types.elts if isinstance(types, ast.Tuple) else [types]:
                if isinstance(name, ast.Name):
                    caught.add(name.id)
    return caught


def outside_classes() -> "dict[str, type]":
    """The ``ReproError`` subclasses ``src/`` defines outside
    ``repro.errors``, by name (read statically, resolved by import)."""
    import importlib

    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "errors.py" and path.parent == SRC:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
        if not names:
            continue
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = importlib.import_module(
            ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        )
        for name in names:
            cls = getattr(module, name)
            if issubclass(cls, errors.ReproError):
                found[name] = cls
    return found


def payload_keys(code: str) -> list[str]:
    """The wire payload's keys for *code*, in order."""
    _cls, retryable, fields = CODES[code]
    if retryable is None:
        return ["type", "message"]
    return ["type", "message", "retryable", *fields]


def raise_sites() -> "list[tuple[str, str, str, object, tuple[str, ...]]]":
    """``(where, code, class, retryable, fields)`` for every call in
    ``src/`` of a class ``repro.errors`` exports, or of a public
    ``ReproError`` subclass defined elsewhere in ``src/``."""
    classes = {name: getattr(errors, name) for name in errors.__all__}
    classes.update(
        (name, cls)
        for name, cls in outside_classes().items()
        if not name.startswith("_")
    )
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "errors.py" and path.parent == SRC:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in classes
            ):
                continue
            cls = node.func.id
            keywords = {k.arg: k.value for k in node.keywords}
            code = keywords["code"].value if "code" in keywords else cls
            if "retryable" in keywords:
                retryable = keywords["retryable"].value
            else:
                retryable = getattr(classes[cls], "retryable", None)
            fields = tuple(
                k.arg for k in node.keywords if k.arg not in ("code", "retryable")
            )
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            sites.append((where, code, cls, retryable, fields))
    return sites


def test_every_raise_site_matches_its_row():
    """The class, ``retryable`` and field order each raise site gives its
    code are the table's: flip one ``retryable`` (or a class default),
    reorder a field or raise a code as another class, and this fails."""
    sites = raise_sites()
    assert len(sites) > 100
    for where, code, cls, retryable, fields in sites:
        assert code in CODES, f"{where}: code {code!r} has no row"
        assert (cls, retryable, fields) == CODES[code], where
    assert {code for _w, code, *_ in sites} == set(CODES)


def test_the_kept_classes_are_the_ones_something_catches():
    """A class is kept only for a handler: named by an ``except`` or an
    ``isinstance`` in ``src/``, or ``InvalidConfidenceError`` (caught as
    a ``ValueError``) and ``ReplicationTimeoutError`` (imported by
    ``benchmarks/e2e/layers.py``)."""
    caught = _handled_names()
    kept = set(errors.__all__)
    not_named = {"InvalidConfidenceError", "ReplicationTimeoutError"}
    assert (caught & kept) | not_named == kept
    assert {cls for cls, _r, _f in CODES.values()} <= kept | set(outside_classes())
    for name in kept:
        assert issubclass(getattr(errors, name), errors.ReproError), name


def test_a_class_outside_errors_is_one_something_catches():
    """The same rule for the ``ReproError`` subclasses other modules
    define: each is named by an ``except`` or an ``isinstance`` — a
    raise-only one is a code of its nearest caught parent instead."""
    outside = set(outside_classes())
    assert {"PathFlagError", "ServerReplyError"} <= outside
    assert outside <= _handled_names()


@pytest.mark.parametrize("code", sorted(_SERVER_CODES))
def test_the_wire_payload_key_order(code):
    cls, retryable, fields = CODES[code]
    error = getattr(errors, cls)(
        "m", code=code, retryable=retryable, **{field: 0 for field in fields}
    )
    payload = _error_reply(error)["error"]
    assert list(payload) == payload_keys(code)
    assert payload["type"] == code and payload["retryable"] is retryable


def test_the_golden_wire_frames_agree():
    """Every error reply the recorded conversation holds: a row's code,
    its ``retryable`` and its key order."""
    golden = json.loads((ROOT / "tests" / "golden_wire.json").read_text())
    seen = set()
    for step, frame in golden:
        error = json.loads(frame).get("error") if frame.startswith("{") else None
        if error is None:
            continue
        seen.add(error["type"])
        assert list(error) == payload_keys(error["type"]), step
        assert error.get("retryable") == CODES[error["type"]][1], step
    assert {"UnknownTableError", "StaleEpochError", "ServerDrainingError"} <= seen


_DOC_ROW = re.compile(
    r"^\| `(\w+)` \| `(\w+)` \| (yes|no|—) \|([^|]*)\| [^|]+ \|$"
)


def test_the_docs_table_lists_every_code():
    """docs/SERVING.md's error table has one row per code, with the class,
    ``retryable`` and fields of this one — every ``code="…"`` literal in
    ``src/`` included."""
    rows = {}
    for line in (ROOT / "docs" / "SERVING.md").read_text().splitlines():
        match = _DOC_ROW.match(line)
        if match:
            code, cls, retryable, fields = match.groups()
            rows[code] = (
                cls,
                {"yes": True, "no": False, "—": None}[retryable],
                tuple(re.findall(r"`(\w+)`", fields)),
            )
    assert rows == CODES
    literals = set()
    for path in SRC.rglob("*.py"):
        literals.update(re.findall(r'\bcode="(\w+)"', path.read_text()))
    assert literals and literals <= set(rows)
