"""The reply oracle: an in-process native-engine reference for every op.

The oracle holds a pristine in-memory copy of the scenario and answers
each op with ``PCQEngine(engine="native")`` — no sockets, no MVCC, no
WAL, no columnar engine — so a reply that matches it has survived every
layer the benchmark measures.  On top of the differential check it
asserts the paper's guarantee directly: a released row's confidence is
strictly above β.
"""

from __future__ import annotations

from typing import Any

from repro import PCQEngine, QueryRequest
from repro.sql import execute_sql
from repro.workload import healthcare_database

from workloads import DATA_SEED, Op, Workload

__all__ = ["Oracle", "logical_rows"]


def logical_rows(db: Any) -> dict[str, list]:
    """Every table's ``(values, confidence)`` rows, sorted — the state a
    query can observe, without node-local ordinals."""
    return {
        table.name: sorted(
            (list(row.values), row.confidence) for row in table.scan()
        )
        for table in db.tables()
    }


class Oracle:
    """Replays a workload's ops in stream order on a pristine copy."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        scenario = healthcare_database(
            patients=workload.patients, seed=DATA_SEED
        )
        self.db = scenario.db
        self._engine = PCQEngine(
            scenario.db, scenario.policies, solver="greedy", engine="native"
        )
        self._memo: dict[str, dict[str, Any]] = {}

    def expect(self, op: Op) -> dict[str, Any]:
        """The reply fields the server must produce for *op*."""
        if self.workload.repeatable and op.sql in self._memo:
            return self._memo[op.sql]
        if op.kind == "dml":
            expected = {"result": str(execute_sql(self.db, op.sql, engine="native"))}
        else:
            result = self._engine.execute(
                QueryRequest(op.sql, self.workload.purpose, op.fraction),
                user=self.workload.user,
            )
            expected = {
                "status": result.status.value,
                "threshold": result.threshold,
                "released": len(result.released),
                "withheld": result.withheld_count,
                "rows": [list(row.values) for row, _conf in result.released],
                "confidences": [conf for _row, conf in result.released],
                "quote_cost": None if result.quote is None else result.quote.cost,
            }
        if self.workload.repeatable:
            self._memo[op.sql] = expected
        return expected

    def check(self, op: Op, reply: "dict[str, Any] | None") -> "str | None":
        """``None`` when *reply* is right, else what is wrong with it.

        Must be called for every op of the stream, in order — the
        oracle's state advances with each call.
        """
        return self.compare(op, self.expect(op), reply)

    def compare(
        self, op: Op, expected: "dict[str, Any]", reply: "dict[str, Any] | None"
    ) -> "str | None":
        """Judge *reply* against an :meth:`expect` result (no state)."""
        if reply is None:
            return "no reply"
        if op.kind == "dml":
            if reply.get("result") != expected["result"]:
                return f"result {reply.get('result')!r} != {expected['result']!r}"
            return None
        got = {key: reply.get(key) for key in expected if key != "quote_cost"}
        got["quote_cost"] = (reply.get("quote") or {}).get("cost")
        for key, want in expected.items():
            if got[key] != want:
                return f"{key}: got {_brief(got[key])}, expected {_brief(want)}"
        beta = self.workload.beta
        if expected["threshold"] != beta:
            return f"threshold {expected['threshold']} is not the policy's β {beta}"
        if any(confidence <= beta for confidence in reply["confidences"]):
            return f"released a row with confidence ≤ β = {beta}"
        return None


def _brief(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."
