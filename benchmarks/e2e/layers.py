"""Outside-in layer tracing: a span recorder and two in-process replays.

The traced run never touches the program: it re-drives each op through
the layers' public functions, one call per layer, and records a span
around every call (``name, start_ns, end_ns, parent, op_id``).  A
layer's time is the *self time* of its spans — duration minus what its
child spans cover — summed over the replayed ops and divided by their
number, so every ``<layer>_ms`` below reads "ms per op of this workload".

Two replays share one code path for building replies:

* :meth:`Replay.layered` — parse → plan → optimize → pick engine →
  execute → compile circuits → evaluate → policy filter → (build →
  solve → write back → re-filter) → commit → pin → ack wait, each a span;
* :meth:`Replay.direct` — the same op through ``Session.ask`` /
  ``Session.run_sql`` in one call: the in-process wall clock the layer
  sum is reconciled against, and the baseline of the wire overhead.

Both run on the calling thread against a real durable primary with a
live semi-sync replica (``cluster.build``), and both replies are checked
by the oracle like any reply off the wire.
"""

from __future__ import annotations

import json
import socket
import time
from collections import defaultdict
from typing import Any, Callable

from repro.algebra.optimizer import optimize
from repro.algebra.plan import Scan
from repro.core import make_solver
from repro.errors import ReplicationTimeoutError
from repro.increment import IncrementProblem, SimulatedImprovementService
from repro.policy import PolicyEvaluator
from repro.server import Session, recv_frame, send_frame
from repro.sql import execute_dml, parse_command, pick_engine, plan_statement

from cluster import SYNC_TIMEOUT_S, Cluster
from workloads import Op, Workload

__all__ = ["Recorder", "NullRecorder", "Replay", "self_times"]

_now = time.perf_counter_ns

#: Spans named ``trace.*`` are the recorder's own bookkeeping (re-timed
#: calls used to split a span that cannot be opened from outside); they
#: belong to no layer.
BOOKKEEPING_PREFIX = "trace."
ROOT_SPAN = "op"


class _Span:
    __slots__ = ("_recorder", "_name", "index")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        stack = recorder._stack
        self.index = len(recorder.spans)
        recorder.spans.append(
            [self._name, _now(), 0, stack[-1] if stack else -1, recorder.op_id]
        )
        stack.append(self.index)
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self._recorder
        recorder.spans[self.index][2] = _now()
        recorder._stack.pop()


class Recorder:
    """In-memory span log: ``[name, start_ns, end_ns, parent, op_id]``."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []
        self.op_id = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(
        self, name: str, start_ns: int, end_ns: int, parent: "int | None" = None
    ) -> int:
        """Record a span from timestamps taken elsewhere (a hook, or two
        clock reads); *parent* defaults to the innermost open span."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self.op_id])
        return len(self.spans) - 1

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op_id": op_id,
                }) + "\n")


class _NullSpan:
    index = -1

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class NullRecorder:
    """Same surface, records nothing: the overhead baseline."""

    op_id = -1
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def add(
        self, name: str, start_ns: int, end_ns: int, parent: "int | None" = None
    ) -> int:
        return -1


def self_times(spans: "list[list]") -> "list[int]":
    """Per span: duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def ask_reply(
    status: str, threshold: float, seq: int, released: list, withheld: int,
    quote: Any, receipt: Any,
) -> "dict[str, Any]":
    """The server's ``ask`` reply fields (``PCQEServer._op_ask``)."""
    reply: "dict[str, Any]" = {
        "ok": True,
        "status": status,
        "threshold": threshold,
        "seq": seq,
        "rows": [list(row.values) for row, _conf in released],
        "confidences": [conf for _row, conf in released],
        "released": len(released),
        "withheld": withheld,
    }
    if quote is not None:
        reply["quote"] = {"cost": quote[0], "shortfall": quote[1]}
    if receipt is not None:
        reply["improved"] = receipt.tuples_improved
        reply["improvement_cost"] = receipt.total_cost
    return reply


class Replay:
    """Drives ops through one in-process cluster, layered or direct."""

    def __init__(
        self, cluster: Cluster, workload: Workload,
        recorder: "Recorder | NullRecorder",
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        self.rec = recorder
        self.session = Session(
            cluster.server.mvcc, cluster.policies, workload.user,
            workload.purpose, solver=cluster.server.solver,
            engine=cluster.server.engine,
        )
        self._near, self._far = socket.socketpair()
        self._wal_done_ns = 0
        cluster.durability.add_commit_listener(self._on_wal_record)
        #: Work counts gathered at the layer boundaries (layered replay).
        self.counts: "dict[str, float]" = defaultdict(float)

    def close(self) -> None:
        self.cluster.durability.remove_commit_listener(self._on_wal_record)
        self.session.close()
        self._near.close()
        self._far.close()

    def _on_wal_record(self, seq: int, payload: bytes) -> None:
        # Fires right after the record is appended and fsync'd.
        self._wal_done_ns = _now()

    # -- the two replays ---------------------------------------------------

    def direct(self, op: Op, op_id: int) -> "dict[str, Any]":
        """One call into the session API; the in-process wall clock."""
        session = self.session
        if op.kind == "dml":
            result = session.run_sql(op.sql, idempotency=f"direct:{op_id}")
            self._wait_for_ack()
            return {"ok": True, "result": str(result), "seq": session.seq}
        result = session.ask(op.sql, op.fraction)
        if result.receipt is not None:
            self._wait_for_ack()
        quote = result.quote
        return ask_reply(
            result.status.value, result.threshold, session.seq,
            result.released, result.withheld_count,
            None if quote is None else (quote.cost, quote.shortfall),
            result.receipt,
        )

    def layered(self, op: Op, op_id: int) -> "dict[str, Any]":
        """The same op, one recorded call per layer."""
        rec = self.rec
        rec.op_id = op_id
        with rec.span(ROOT_SPAN):
            request: "dict[str, Any]" = {
                "op": "sql" if op.kind == "dml" else "ask", "sql": op.sql,
                "idempotency_key": f"layered:{op_id}", "rid": op_id + 1,
            }
            if op.kind == "ask":
                request["fraction"] = op.fraction
            self._codec(request)
            reply = self._dml(op) if op.kind == "dml" else self._ask(op)
            self.counts["reply_bytes"] += self._codec(reply)
        self.counts["ops"] += 1
        return reply

    # -- layers --------------------------------------------------------------

    def _codec(self, message: "dict[str, Any]") -> int:
        """One frame through ``send_frame``/``recv_frame``; its size."""
        with self.rec.span("server.protocol.codec"):
            send_frame(self._near, message)
            echoed = recv_frame(self._far)
        return len(json.dumps(echoed, separators=(",", ":")))

    def _dml(self, op: Op) -> "dict[str, Any]":
        with self.rec.span("sql.parse"):
            command = parse_command(op.sql)
        result = self._commit(lambda db: execute_dml(db, command))
        self._wait_for_ack()
        return {"ok": True, "result": str(result), "seq": self.session.seq}

    def _commit(self, mutate: Callable[[Any], Any]) -> Any:
        """``MVCCDatabase.commit`` split three ways without opening it:
        the mutation itself (timed inside the callback), the WAL append
        (callback end → the durability manager's commit listener), and
        the remainder — batch bookkeeping plus publishing the
        copy-on-write generation — which stays as the commit's self time.
        """
        rec = self.rec
        marks = [0, 0]

        def timed(db: Any) -> Any:
            marks[0] = _now()
            try:
                return mutate(db)
            finally:
                marks[1] = _now()

        self._wal_done_ns = 0
        with rec.span("server.mvcc.commit") as span:
            result = self.cluster.server.mvcc.commit(timed)
        rec.add("storage.mutation", marks[0], marks[1], span.index)
        if self._wal_done_ns:
            rec.add(
                "storage.durability.wal_append", marks[1], self._wal_done_ns,
                span.index,
            )
            self.counts["commits"] += 1
        with rec.span("server.mvcc.pin"):
            self.session.refresh()
        return result

    def _wait_for_ack(self) -> None:
        seq = self.session.seq
        with self.rec.span("server.replication.ack_wait"):
            acked = self.cluster.server.replication.wait_for_acks(
                seq, 1, SYNC_TIMEOUT_S
            )
        if acked < 1:
            raise ReplicationTimeoutError(
                f"commit at seq {seq} was not acknowledged by the replica",
                seq=seq, required=1, acked=acked,
            )

    def _enforce(self, result: Any, threshold: float) -> Any:
        """Confidence evaluation + threshold partition, as three layers.

        ``apply_threshold`` evaluates confidences internally and cannot
        be opened from outside, so that evaluation is re-timed right
        after it and booked as a child of the policy span: the policy
        layer's self time is then the partition alone, and evaluation is
        counted once, under ``lineage.evaluate``.
        """
        rec = self.rec
        db = self.session.db
        with rec.span("lineage.compile"):
            result.compiled_circuits()
        with rec.span("lineage.evaluate"):
            result.confidences(db)
        started = _now()
        outcome = PolicyEvaluator.apply_threshold(result, db, threshold)
        filtered = _now()
        result.confidences(db)
        retimed = _now()
        policy = rec.add("policy.filter", started, filtered)
        rec.add(
            BOOKKEEPING_PREFIX + "evaluate-inside-filter",
            started, min(filtered, started + (retimed - filtered)), policy,
        )
        rec.add(BOOKKEEPING_PREFIX + "remeasure", filtered, retimed)
        return outcome

    def _ask(self, op: Op) -> "dict[str, Any]":
        """``PCQEngine._execute_pipeline``, one public call per layer."""
        rec = self.rec
        session = self.session
        counts = self.counts
        with rec.span("sql.parse"):
            command = parse_command(op.sql)
        with rec.span("sql.plan"):
            plan = plan_statement(session.db, command)
        with rec.span("algebra.optimize"):
            plan = optimize(plan)
        with rec.span("engines.select"):
            prepared = pick_engine(plan, session.engine)
        with rec.span("engines.execute"):
            result = prepared.execute()
        counts["asks"] += 1
        counts["rows_scanned"] += _rows_scanned(prepared.plan)
        counts["rows_out"] += len(result)
        counts["columnar_asks"] += prepared.label != "native"
        threshold = session.policies.threshold_for(
            session.context.user, session.context.purpose
        )
        outcome = self._enforce(result, threshold)
        if len(result):
            stats = result.circuit_stats()
            counts["circuit_nodes"] += stats["nodes"]
            counts["shared_hit_rate_sum"] += stats["shared_hit_rate"]
            counts["asks_with_rows"] += 1
        status, quote, receipt = "satisfied", None, None
        if not outcome.satisfies(op.fraction):
            # Strategy finding (the paper's element 4); SPJ lineage has
            # no negation, so every withheld row is liftable.
            shortfall = outcome.shortfall(op.fraction)
            with rec.span("increment.build"):
                problem = IncrementProblem.from_results(
                    [row.lineage for row, _conf in outcome.withheld],
                    session.db,
                    threshold=min(1.0, threshold + 1e-6),
                    required_count=shortfall,
                )
                problem.check_feasible()
            with rec.span("increment.solve"):
                strategy = make_solver(session.solver)(problem)
            with rec.span("increment.apply"):
                receipt = SimulatedImprovementService().apply(
                    _WriteBack(self), strategy
                )
            outcome = self._enforce(result, threshold)
            self._wait_for_ack()
            status, quote = "improved", (strategy.total_cost, shortfall)
            counts["asks_with_strategy"] += 1
            counts["gain_evaluations"] += strategy.stats.gain_evaluations
            counts["plan_cost"] += strategy.total_cost
        counts["rows_released"] += len(outcome.released)
        counts["rows_decided"] += outcome.total
        return ask_reply(
            status, threshold, session.seq, outcome.released,
            len(outcome.withheld), quote, receipt,
        )


class _WriteBack:
    """What the improvement service sees of the database: reads from the
    session's pin, and the one write routed through the traced commit."""

    def __init__(self, replay: Replay) -> None:
        self._replay = replay

    def resolve(self, tid: Any) -> Any:
        return self._replay.session.db.resolve(tid)

    def apply_confidences(self, updates: Any) -> None:
        self._replay._commit(lambda db: db.apply_confidences(updates))


def _rows_scanned(plan: Any) -> int:
    if isinstance(plan, Scan):
        return len(plan.table)
    return sum(_rows_scanned(child) for child in plan.children)
