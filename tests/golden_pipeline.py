"""The golden pipeline transcript: scripted single asks and their recorder.

``tests/golden_pipeline.json`` holds, for every scenario below, what one
``PCQEngine.execute`` call produced at the commit *before* the Figure-1
pipeline became one function (``execute`` = ``execute_many`` of one
request, every solve through the degradation chain on the caller's
thread): every ``PCQEResult`` field the server or the oracle reads, the
database's confidences afterwards, the ``pcqe.*`` counters, the audit
journal's frame payloads (and a digest of the file), and the captured
span-name tree with the root span's attributes.
``tests/unit/test_golden_pipeline.py`` re-runs every scenario and compares
with ``==`` — floats included.  Only constructors and methods that predate
the rewrite are used, which is what lets the same file run on both sides of
it.

The one intended trace change of that rewrite is listed, not tolerated:
scenarios in :data:`HOP0_SPAN_ADDED` were recorded when an unbudgeted,
single-solver ask called its solver directly; they now carry one hop-0
``pcqe.solver_attempt`` span between ``pcqe.strategy_finding`` and the
solver's own span.  A re-record empties that set.

Re-record (only when the pipeline's *behaviour* is meant to change)::

    PYTHONPATH=src python -m tests.golden_pipeline --record
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

from repro import PCQEngine, QueryRequest
from repro.increment.runtime import budget_exceeded
from repro.obs import MetricsRegistry, get_tracer, set_metrics
from repro.obs.audit import AuditLog
from repro.obs.audit.log import _crc32
from repro.storage.durability.wal import scan_wal
from repro.workload import (
    VentureCapitalScenario,
    healthcare_database,
    venture_capital_database,
)

GOLDEN_PATH = Path(__file__).with_name("golden_pipeline.json")

#: Scenarios whose fixture predates the hop-0 ``pcqe.solver_attempt`` span.
HOP0_SPAN_ADDED = frozenset(
    {"quoted", "improved-dnc", "improved-greedy-healthcare"}
)

EXCEPT_QUERY = (
    "SELECT Company FROM CompanyInfo EXCEPT SELECT Company FROM Proposal"
)
TREATMENTS_QUERY = (
    "SELECT p.PatientId, t.Treatment, t.ResponseRate "
    "FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId"
)


def _timed_out_stub(problem, budget=None):
    """A primary that always runs out of budget before any plan exists."""
    raise budget_exceeded("stub", problem, None)


_timed_out_stub.__name__ = "stub"


def _beta_one():
    scenario = venture_capital_database()
    scenario.policies.add_purpose("certification")
    scenario.policies.add_policy("Manager", "certification", 1.0)
    return scenario


#: name -> (scenario builder, engine options, user, request)
SCENARIOS: dict[str, tuple[Callable[[], Any], dict, str, QueryRequest]] = {
    "satisfied": (
        lambda: healthcare_database(30, seed=3),
        {"solver": "greedy"},
        "rachel",
        QueryRequest(
            "SELECT PatientId, Stage FROM Patients WHERE Stage <> 'IV'",
            "hypothesis-generation",
            1.0,
        ),
    ),
    "satisfied-partial": (
        venture_capital_database,
        {},
        "bob",
        QueryRequest(VentureCapitalScenario.QUERY, "investment", 0.5),
    ),
    "infeasible-beta-one": (
        _beta_one,
        {"solver": "greedy"},
        "bob",
        QueryRequest(VentureCapitalScenario.QUERY, "certification", 1.0),
    ),
    "infeasible-except": (
        venture_capital_database,
        {"solver": "greedy"},
        "bob",
        QueryRequest(EXCEPT_QUERY, "investment", 1.0),
    ),
    "quoted": (
        venture_capital_database,
        {"solver": "heuristic", "approval": lambda _quote: False},
        "bob",
        QueryRequest(VentureCapitalScenario.QUERY, "investment", 1.0),
    ),
    "improved-dnc": (
        venture_capital_database,
        {},
        "bob",
        QueryRequest(VentureCapitalScenario.QUERY, "investment", 1.0),
    ),
    "improved-greedy-healthcare": (
        lambda: healthcare_database(30, seed=3),
        {"solver": "greedy"},
        "omar",
        QueryRequest(TREATMENTS_QUERY, "treatment-evaluation", 0.5),
    ),
    "improved-under-deadline": (
        venture_capital_database,
        {"solver": "heuristic", "fallback": ("greedy",)},
        "bob",
        QueryRequest(
            VentureCapitalScenario.QUERY,
            "investment",
            1.0,
            deadline_ms=60_000.0,
        ),
    ),
    "degraded": (
        venture_capital_database,
        {"solver": _timed_out_stub, "fallback": ("greedy",)},
        "bob",
        QueryRequest(VentureCapitalScenario.QUERY, "investment", 1.0),
    ),
}


def _rows(pairs) -> list:
    return [[list(row.values), confidence] for row, confidence in pairs]


def result_record(result) -> dict:
    """Every ``PCQEResult`` field a caller can read, in JSON terms."""
    quote = result.quote
    receipt = result.receipt
    return {
        "status": result.status.value,
        "threshold": result.threshold,
        "released": _rows(result.released),
        "withheld_count": result.withheld_count,
        "released_fraction": result.released_fraction,
        "rows": [list(values) for values in result.rows],
        "outcome": {
            "released": _rows(result.outcome.released),
            "withheld": _rows(result.outcome.withheld),
        },
        "quote": None
        if quote is None
        else {
            "cost": quote.cost,
            "shortfall": quote.shortfall,
            "algorithm": quote.plan.algorithm,
            "degraded": quote.plan.degraded,
            "targets": {
                str(tid): value for tid, value in sorted(quote.plan.targets.items())
            },
            "satisfied_results": list(quote.plan.satisfied_results),
        },
        "receipt": None
        if receipt is None
        else {
            "total_cost": receipt.total_cost,
            "tuples_improved": receipt.tuples_improved,
            "actions": [
                [str(a.tid), a.old_confidence, a.new_confidence, a.cost]
                for a in receipt.actions
            ],
        },
        "raw_rows": len(result.raw_result),
        "profile": result.profile is not None,
        "degraded": result.degraded,
    }


def database_fingerprint(db) -> list:
    """Every stored tuple's confidence, in table then ordinal order."""
    return [
        [str(row.tid), row.confidence]
        for name in sorted(db.table_names())
        for row in db.table(name).scan()
    ]


def span_tree(spans) -> list:
    """``[name, [children…]]`` per root, children in start order."""
    children: dict[Any, list] = {}
    for span in sorted(spans, key=lambda span: span.start_index):
        children.setdefault(span.parent_id, []).append(span)

    def node(span) -> list:
        return [span.name, [node(child) for child in children.get(span.span_id, [])]]

    return [node(root) for root in children.get(None, [])]


def without_hop0(tree: list) -> list:
    """*tree* with the single ``pcqe.solver_attempt`` child of each
    ``pcqe.strategy_finding`` spliced out (its children promoted)."""
    spliced = []
    for name, children in tree:
        children = without_hop0(children)
        if (
            name == "pcqe.strategy_finding"
            and len(children) == 1
            and children[0][0] == "pcqe.solver_attempt"
        ):
            children = children[0][1]
        spliced.append([name, children])
    return spliced


def run_scenario(name: str) -> dict:
    build, options, user, request = SCENARIOS[name]
    scenario = build()
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "audit.log"
            with AuditLog(str(path)) as log:
                engine = PCQEngine(
                    scenario.db, scenario.policies, audit=log, **options
                )
                with get_tracer().capture() as sink:
                    result = engine.execute(request, user=user)
            journal = path.read_bytes()
            payloads = scan_wal(str(path), checksum=_crc32).payloads
    finally:
        set_metrics(previous)
    (root_span,) = sink.find("pcqe.execute")
    return {
        "result": result_record(result),
        "database": database_fingerprint(scenario.db),
        "counters": {
            key: value
            for key, value in sorted(registry.snapshot().items())
            if key.startswith("pcqe.") and not isinstance(value, dict)
        },
        "audit": {
            "sha256": hashlib.sha256(journal).hexdigest(),
            "frames": [payload.decode("utf-8") for payload in payloads],
        },
        "root_attributes": root_span.attributes,
        "attempts": [
            [span.attributes["solver"], span.attributes["hop"]]
            for span in sorted(
                sink.find("pcqe.solver_attempt"),
                key=lambda span: span.start_index,
            )
        ],
        "spans": span_tree(sink.spans),
    }


def main(argv: list[str]) -> int:
    if argv != ["--record"]:
        print(
            f"refusing to overwrite {GOLDEN_PATH} without --record "
            "(re-record only when the pipeline's behaviour is meant to change)",
            file=sys.stderr,
        )
        return 2
    golden = {name: run_scenario(name) for name in SCENARIOS}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} scenarios -> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
