"""The PCQE framework: the paper's Figure-1 pipeline, end to end.

A user submits ``⟨Q, pu, perc⟩`` — a SQL query, a purpose, and the fraction
of results they need to receive.  The engine then:

1. evaluates the query with lineage propagation and computes each result's
   confidence (elements 1–2);
2. selects the confidence policy for (user's roles, purpose) and filters
   results below the threshold (element 3);
3. if fewer than ``perc`` of the results survive, runs strategy finding to
   compute a minimum-cost confidence-increment plan, quotes its cost
   through the approval hook, and — on approval — has the improvement
   service raise the stored confidences and re-evaluates (element 4).

The approval hook models the paper's "the increment cost ... will be
reported to the manager.  If the manager agrees ... actions will be taken";
pass ``approval=lambda quote: True`` (the default) for an auto-approving
system, or a callback that asks a human / checks a budget.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..algebra.rows import AnnotatedTuple, ResultSet
from ..engines import DEFAULT_ENGINE, check_engine
from ..errors import InfeasibleIncrementError, ReproError
from ..obs import (
    TIMING_BUCKETS,
    ProfileReport,
    get_metrics,
    get_tracer,
    metrics_diff,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.audit import AuditLog
from ..increment import (
    Budget,
    DegradationChain,
    DncOptions,
    GreedyOptions,
    HeuristicOptions,
    IncrementPlan,
    IncrementProblem,
    SimulatedImprovementService,
    SolverAttempt,
    as_budgeted,
    solve_dnc,
    solve_greedy,
    solve_heuristic,
)
from ..increment.improvement import ImprovementReceipt, ImprovementService
from ..lineage.circuit import CircuitPool
from ..policy import FilterOutcome, PolicyEvaluator, PolicyStore
from ..sql import run_sql
from ..storage.database import Database

__all__ = [
    "QueryRequest",
    "QueryStatus",
    "PCQEResult",
    "BatchResult",
    "CostQuote",
    "PCQEngine",
    "make_solver",
]

Solver = Callable[..., IncrementPlan]

logger = logging.getLogger(__name__)


def make_solver(
    name: str, deadline_ms: float | None = None, **options
) -> Solver:
    """A solver callable from a name:
    ``"heuristic" | "greedy" | "dnc" | "local-search"``.

    Keyword arguments are forwarded into the corresponding options class.
    The returned callable accepts ``(problem, budget=None)``; with
    *deadline_ms* set, calls without an explicit budget get a fresh
    :class:`~repro.increment.Budget` expiring that many milliseconds after
    the call starts.
    """
    if name == "heuristic":
        configured = HeuristicOptions(**options)

        def solve(problem, budget=None):
            return solve_heuristic(problem, configured, budget)

    elif name == "greedy":
        configured_greedy = GreedyOptions(**options)

        def solve(problem, budget=None):
            return solve_greedy(problem, configured_greedy, budget)

    elif name == "dnc":
        configured_dnc = DncOptions(**options)

        def solve(problem, budget=None):
            return solve_dnc(problem, configured_dnc, budget)

    elif name == "local-search":
        from ..increment import LocalSearchOptions, solve_local_search

        configured_ls = LocalSearchOptions(**options)

        def solve(problem, budget=None):
            return solve_local_search(problem, configured_ls, budget)

    else:
        raise ReproError(f"unknown solver {name!r}")
    solve.__name__ = name
    if deadline_ms is None:
        return solve

    def with_deadline(problem, budget=None):
        if budget is None:
            budget = Budget.from_deadline_ms(deadline_ms)
        return solve(problem, budget)

    with_deadline.__name__ = name
    return with_deadline


@dataclass(frozen=True)
class QueryRequest:
    """The user's input ``⟨Q, pu, perc⟩`` (§3.2).

    ``profile=True`` additionally attaches a stage-by-stage
    :class:`~repro.obs.ProfileReport` (timings, span tree, metrics moved)
    to the returned :class:`PCQEResult`.

    ``deadline_ms`` caps the wall-clock time each strategy-finding attempt
    may take for *this* request (overriding the engine's default); see
    ``docs/ROBUSTNESS.md`` for the anytime/degradation semantics.
    """

    sql: str
    purpose: str
    required_fraction: float = 1.0
    profile: bool = False
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.required_fraction <= 1.0:
            raise ReproError(
                f"required_fraction must be in [0, 1], "
                f"got {self.required_fraction}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ReproError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )


class QueryStatus(enum.Enum):
    """How a policy-compliant evaluation concluded."""

    #: Enough results passed the policy without any improvement.
    SATISFIED = "satisfied"
    #: Improvement was applied; the released results reflect it.
    IMPROVED = "improved"
    #: A plan was quoted but the approval hook declined it.
    QUOTED = "quoted"
    #: No increment can reach the requested fraction.
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class CostQuote:
    """What the engine offers the user before improving data."""

    plan: IncrementPlan
    cost: float
    shortfall: int


@dataclass
class BatchResult:
    """Outcome of a multi-query session (:meth:`PCQEngine.execute_many`)."""

    results: "list[PCQEResult]"
    quote: "CostQuote | None"
    receipt: "ImprovementReceipt | None"

    @property
    def improved(self) -> bool:
        return self.receipt is not None


@dataclass
class PCQEResult:
    """Outcome of one policy-compliant query evaluation."""

    status: QueryStatus
    threshold: float
    released: list[tuple[AnnotatedTuple, float]]
    withheld_count: int
    outcome: FilterOutcome
    quote: CostQuote | None = None
    receipt: ImprovementReceipt | None = None
    raw_result: ResultSet | None = field(default=None, repr=False)
    #: Stage breakdown, present when the request asked for ``profile=True``.
    profile: ProfileReport | None = field(default=None, repr=False)
    #: True when the increment plan came from a degradation path — a
    #: fallback solver hop or an anytime incumbent on an exhausted
    #: budget — rather than the primary solver running to completion.
    #: The result is still policy-compliant; only plan *quality* (cost)
    #: may be worse.  Surfaces as ``degraded: true`` on the wire and in
    #: the audit outcome record.
    degraded: bool = False

    @property
    def rows(self) -> list[tuple]:
        """Released value tuples (what the user actually sees)."""
        return [row.values for row, _confidence in self.released]

    @property
    def released_fraction(self) -> float:
        total = len(self.released) + self.withheld_count
        return 1.0 if total == 0 else len(self.released) / total


class PCQEngine:
    """Policy-compliant query evaluation over a database + policy store."""

    def __init__(
        self,
        db: Database,
        policies: PolicyStore,
        solver: "str | Solver" = "dnc",
        improvement: ImprovementService | None = None,
        approval: Callable[[CostQuote], bool] | None = None,
        delta: float = 0.1,
        fallback: "tuple[str | Solver, ...] | list[str | Solver]" = (),
        deadline_ms: float | None = None,
        audit: "AuditLog | None" = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        """*fallback* lists solvers tried, in order, when the primary one
        times out (``heuristic → greedy`` is the canonical chain); each
        attempt gets a fresh budget of *deadline_ms* milliseconds.  A
        request's own ``deadline_ms`` overrides the engine default.  With
        no deadline anywhere, solvers run unbudgeted exactly as before.

        *audit* attaches an :class:`~repro.obs.audit.AuditLog`: every
        :meth:`execute` then journals one record per result tuple per
        enforcement pass — policy triple, confidence, contributing
        lineage, verdict — plus increment write-backs and the final
        outcome (see ``docs/OBSERVABILITY.md``).

        *engine* is ``columnar`` or the row-at-a-time ``native``
        reference (see ``docs/ENGINES.md``); results are identical on
        both, and any other name is rejected here.
        """
        self.db = db
        self.policies = policies
        self.solver: Solver = (
            make_solver(solver) if isinstance(solver, str) else solver
        )
        self.improvement: ImprovementService = (
            improvement if improvement is not None else SimulatedImprovementService()
        )
        self.approval = approval if approval is not None else (lambda _quote: True)
        self.delta = delta
        self.deadline_ms = deadline_ms
        self.audit = audit
        self.engine = check_engine(engine)
        attempts = [self._attempt(solver)]
        attempts.extend(self._attempt(entry) for entry in fallback)
        self.chain = DegradationChain(attempts, deadline_ms=deadline_ms)
        self._evaluator = PolicyEvaluator(policies)

    @staticmethod
    def _attempt(entry: "str | Solver") -> SolverAttempt:
        if isinstance(entry, str):
            return SolverAttempt(entry, make_solver(entry))
        name = getattr(entry, "__name__", None) or type(entry).__name__
        return SolverAttempt(name, as_budgeted(entry))

    # -- pipeline ----------------------------------------------------------

    def execute(self, request: QueryRequest, user: str) -> PCQEResult:
        """Run the full Figure-1 pipeline for *user*'s request.

        With ``request.profile`` set, spans for the run are captured (the
        tracer is enabled for the duration if it was not already) and a
        :class:`~repro.obs.ProfileReport` is attached to the result.
        """
        started = time.monotonic_ns()
        try:
            if not request.profile:
                return self._execute_pipeline(request, user)
            tracer = get_tracer()
            metrics = get_metrics()
            before = metrics.snapshot()
            with tracer.capture() as sink:
                result = self._execute_pipeline(request, user)
            result.profile = ProfileReport.from_spans(
                sink.spans,
                root="pcqe.execute",
                metrics=metrics_diff(before, metrics.snapshot()),
            )
            return result
        finally:
            get_metrics().histogram(
                "pcqe.ask.latency_seconds", TIMING_BUCKETS
            ).observe((time.monotonic_ns() - started) / 1e9)

    def _execute_pipeline(self, request: QueryRequest, user: str) -> PCQEResult:
        tracer = get_tracer()
        with tracer.span(
            "pcqe.execute", user=user, purpose=request.purpose
        ) as root:
            with tracer.span("pcqe.query_evaluation") as span:
                result = run_sql(self.db, request.sql, engine=self.engine)
                span.set_attribute("rows", len(result))
                if result.engine is not None:
                    span.set_attribute("engine", result.engine)
            threshold = self.policies.threshold_for(user, request.purpose)
            with tracer.span("pcqe.policy_enforcement", threshold=threshold):
                outcome = self._evaluator.apply_threshold(
                    result, self.db, threshold
                )
            get_metrics().counter("pcqe.queries").inc()

            audit = self.audit
            query_id: str | None = None
            if audit is not None:
                policy = self.policies.select_policy(user, request.purpose)
                query_id = audit.begin_query(
                    user=user,
                    purpose=request.purpose,
                    role=policy.role,
                    threshold=threshold,
                    required_fraction=request.required_fraction,
                    sql=request.sql,
                )
                root.set_attribute("audit.query_id", query_id)
                initial_decisions = self._audit_enforcement(
                    audit, query_id, result, outcome, phase="initial"
                )

            if outcome.satisfies(request.required_fraction):
                root.set_attribute("status", QueryStatus.SATISFIED.value)
                if audit is not None and query_id is not None:
                    audit.end_query(
                        query_id,
                        status=QueryStatus.SATISFIED.value,
                        released=len(outcome.released),
                        withheld=len(outcome.withheld),
                    )
                return PCQEResult(
                    status=QueryStatus.SATISFIED,
                    threshold=threshold,
                    released=list(outcome.released),
                    withheld_count=len(outcome.withheld),
                    outcome=outcome,
                    raw_result=result,
                )

            shortfall = outcome.shortfall(request.required_fraction)
            degraded = False
            try:
                with tracer.span(
                    "pcqe.strategy_finding", shortfall=shortfall
                ) as span:
                    plan = self._find_strategy(
                        outcome,
                        threshold,
                        shortfall,
                        result.circuit_pool,
                        deadline_ms=request.deadline_ms,
                        span=span,
                    )
                    span.set_attribute("cost", plan.total_cost)
                # The degradation chain stamps the plan when it came from
                # a fallback hop or an exhausted-budget incumbent.
                degraded = plan.degraded
                if degraded:
                    root.set_attribute("degraded", True)
            except InfeasibleIncrementError as error:
                logger.warning(
                    "infeasible increment for user=%s purpose=%s: %s",
                    user,
                    request.purpose,
                    error,
                )
                get_metrics().counter("pcqe.infeasible").inc()
                root.set_attribute("status", QueryStatus.INFEASIBLE.value)
                if audit is not None and query_id is not None:
                    audit.end_query(
                        query_id,
                        status=QueryStatus.INFEASIBLE.value,
                        released=len(outcome.released),
                        withheld=len(outcome.withheld),
                        shortfall=shortfall,
                    )
                return PCQEResult(
                    status=QueryStatus.INFEASIBLE,
                    threshold=threshold,
                    released=list(outcome.released),
                    withheld_count=len(outcome.withheld),
                    outcome=outcome,
                    raw_result=result,
                )
            quote = CostQuote(plan, plan.total_cost, shortfall)
            if not self.approval(quote):
                root.set_attribute("status", QueryStatus.QUOTED.value)
                if audit is not None and query_id is not None:
                    audit.record_increment(
                        query_id,
                        approved=False,
                        cost=plan.total_cost,
                        targets={
                            str(tid): conf for tid, conf in plan.targets.items()
                        },
                    )
                    audit.end_query(
                        query_id,
                        status=QueryStatus.QUOTED.value,
                        released=len(outcome.released),
                        withheld=len(outcome.withheld),
                        shortfall=shortfall,
                        degraded=degraded,
                    )
                return PCQEResult(
                    status=QueryStatus.QUOTED,
                    threshold=threshold,
                    released=list(outcome.released),
                    withheld_count=len(outcome.withheld),
                    outcome=outcome,
                    quote=quote,
                    raw_result=result,
                    degraded=degraded,
                )

            with tracer.span("pcqe.improvement") as span:
                # On a durable database the write-back lands as ONE WAL
                # record (db.apply_confidences journals the whole batch),
                # so a crash mid-improvement recovers to before-or-after
                # the strategy, never half of it.
                receipt = self.improvement.apply(self.db, plan)
                span.set_attribute("tuples_improved", receipt.tuples_improved)
                span.set_attribute("total_cost", receipt.total_cost)
                span.set_attribute("durable", self.db.is_durable)
                if self.db.is_durable:
                    get_metrics().counter("pcqe.improvements_persisted").inc()
            with tracer.span("pcqe.reevaluation") as span:
                # Same ResultSet object as the first enforcement pass, so
                # the row circuits compiled there are evaluated again with
                # the improved confidences instead of being rebuilt.
                span.set_attribute("circuit.reused", result.has_compiled_circuits)
                improved_outcome = self._evaluator.apply_threshold(
                    result, self.db, threshold
                )
            logger.info(
                "improved %d tuple(s) for %.4f so user=%s purpose=%s "
                "releases %d/%d row(s)",
                receipt.tuples_improved,
                receipt.total_cost,
                user,
                request.purpose,
                len(improved_outcome.released),
                improved_outcome.total,
            )
            root.set_attribute("status", QueryStatus.IMPROVED.value)
            if audit is not None and query_id is not None:
                # The write-back that changed verdicts: the applied targets
                # and a fresh decision record per tuple under the new
                # confidences, so replay can reconstruct the verdict flip.
                audit.record_increment(
                    query_id,
                    approved=True,
                    cost=receipt.total_cost,
                    targets={
                        str(tid): conf for tid, conf in plan.targets.items()
                    },
                )
                self._audit_enforcement(
                    audit,
                    query_id,
                    result,
                    improved_outcome,
                    phase="post_increment",
                    previous=initial_decisions,
                )
                audit.end_query(
                    query_id,
                    status=QueryStatus.IMPROVED.value,
                    released=len(improved_outcome.released),
                    withheld=len(improved_outcome.withheld),
                    shortfall=shortfall,
                    degraded=degraded,
                )
            return PCQEResult(
                status=QueryStatus.IMPROVED,
                threshold=threshold,
                released=list(improved_outcome.released),
                withheld_count=len(improved_outcome.withheld),
                outcome=improved_outcome,
                quote=quote,
                receipt=receipt,
                raw_result=result,
                degraded=degraded,
            )

    def _audit_enforcement(
        self,
        audit: "AuditLog",
        query_id: str,
        result: ResultSet,
        outcome: FilterOutcome,
        phase: str,
        previous: "dict[int, tuple[float, str]] | None" = None,
    ) -> dict[int, tuple[float, str]]:
        """Journal one decision record per result tuple, in result order.

        Tuple ids are positional (``t0``, ``t1``, …) within the query's
        result set — stable across both enforcement passes because
        re-evaluation reuses the same :class:`ResultSet` object.  Each
        record carries the base-tuple lineage ids and the confidences they
        held *at decision time*, read from the database in one batch.

        With *previous* (the map this returned for the ``initial`` pass),
        tuples whose confidence and verdict are unchanged are skipped —
        their initial record remains the decision of record, and the
        journal only grows where the increment actually changed something.
        Returns ``{tuple index: (confidence, verdict)}`` for this pass.
        """
        base = (
            self.db.confidences(result.base_tuples()) if len(result) else {}
        )
        labels = {tid: str(tid) for tid in base}
        verdicts: dict[int, tuple[float, str]] = {}
        for row, confidence in outcome.released:
            verdicts[id(row)] = (confidence, "released")
        for row, confidence in outcome.withheld:
            verdicts[id(row)] = (confidence, "blocked")
        decided: dict[int, tuple[float, str]] = {}
        entries = []
        for index, row in enumerate(result.rows):
            confidence, verdict = verdicts[id(row)]
            decided[index] = (confidence, verdict)
            if previous is not None and previous.get(index) == (
                confidence,
                verdict,
            ):
                continue
            lineage = [
                (labels[tid], base[tid])
                for tid in sorted(
                    row.lineage.variables,
                    key=lambda tid: (tid.table, tid.ordinal),
                )
            ]
            entries.append(
                (f"t{index}", row.values, confidence, verdict, phase, lineage)
            )
        audit.record_decisions(query_id, entries)
        return decided

    def execute_many(
        self, requests: "list[QueryRequest]", user: str
    ) -> "BatchResult":
        """The §4 multi-query extension: several queries, one increment.

        Every query is evaluated and policy-filtered; the shortfalls are
        combined into a single multi-requirement increment problem (the
        search space is the union of all queries' base tuples, and a
        solution must satisfy *every* query's requirement).  One quote is
        issued and — on approval — one improvement benefits all queries.
        """
        with get_tracer().span(
            "pcqe.execute_many", user=user, queries=len(requests)
        ):
            return self._execute_many(requests, user)

    def _execute_many(
        self, requests: "list[QueryRequest]", user: str
    ) -> "BatchResult":
        evaluations = []
        group_specs: list[tuple[list, int]] = []
        liftable_rows: list = []
        for request in requests:
            result = run_sql(self.db, request.sql, engine=self.engine)
            threshold = self.policies.threshold_for(user, request.purpose)
            outcome = self._evaluator.apply_threshold(result, self.db, threshold)
            evaluations.append((request, result, threshold, outcome))
            shortfall = outcome.shortfall(request.required_fraction)
            if shortfall == 0:
                continue
            if threshold >= 1.0:
                raise InfeasibleIncrementError(
                    "no result can exceed a confidence threshold of 1.0"
                )
            members = []
            for row, _confidence in outcome.withheld:
                if not row.lineage.monotone:
                    continue
                members.append(len(liftable_rows))
                liftable_rows.append((row, threshold))
            if shortfall > len(members):
                raise InfeasibleIncrementError(
                    f"query for {request.purpose!r}: {shortfall} more results "
                    f"required but only {len(members)} can be improved"
                )
            group_specs.append((members, shortfall))

        if not group_specs:
            return BatchResult(
                results=[
                    self._settled(threshold, outcome, result)
                    for _request, result, threshold, outcome in evaluations
                ],
                quote=None,
                receipt=None,
            )

        # Solve one problem at the strictest involved threshold per row's
        # own policy: each result must clear *its* query's threshold, so the
        # problem threshold must be per-result.  The shared solvers use one
        # β, so we conservatively target each row at its own threshold by
        # lifting the problem threshold to the row's requirement via the
        # maximum involved threshold.  (Thresholds usually coincide across
        # a session; the conservative choice never under-delivers.)
        strict = min(
            1.0, max(threshold for _row, threshold in liftable_rows) + 1e-6
        )
        problem = IncrementProblem.from_results(
            [row.lineage for row, _threshold in liftable_rows],
            self.db,
            threshold=strict,
            required_count=0,
            delta=self.delta,
        )
        problem = IncrementProblem(
            problem.results,
            problem.tuples,
            strict,
            delta=self.delta,
            requirement_groups=group_specs,
        )
        problem.check_feasible()
        # A batch runs one solve for every query; the strictest per-request
        # deadline (if any) governs it.
        deadlines = [
            request.deadline_ms
            for request in requests
            if request.deadline_ms is not None
        ]
        batch_deadline = min(deadlines) if deadlines else None
        with get_tracer().span(
            "pcqe.strategy_finding", queries=len(group_specs)
        ) as span:
            plan = self._solve(problem, batch_deadline, span)
            span.set_attribute("cost", plan.total_cost)
        total_shortfall = sum(count for _members, count in group_specs)
        quote = CostQuote(plan, plan.total_cost, total_shortfall)
        if not self.approval(quote):
            return BatchResult(
                results=[
                    self._settled(threshold, outcome, result, QueryStatus.QUOTED)
                    for _request, result, threshold, outcome in evaluations
                ],
                quote=quote,
                receipt=None,
            )
        with get_tracer().span("pcqe.improvement") as span:
            receipt = self.improvement.apply(self.db, plan)
            span.set_attribute("durable", self.db.is_durable)
            if self.db.is_durable:
                get_metrics().counter("pcqe.improvements_persisted").inc()
        results = []
        for _request, result, threshold, _old in evaluations:
            outcome = self._evaluator.apply_threshold(result, self.db, threshold)
            results.append(
                self._settled(threshold, outcome, result, QueryStatus.IMPROVED)
            )
        return BatchResult(results=results, quote=quote, receipt=receipt)

    @staticmethod
    def _settled(
        threshold: float,
        outcome: FilterOutcome,
        result: ResultSet,
        status: QueryStatus = QueryStatus.SATISFIED,
    ) -> PCQEResult:
        return PCQEResult(
            status=status,
            threshold=threshold,
            released=list(outcome.released),
            withheld_count=len(outcome.withheld),
            outcome=outcome,
            raw_result=result,
        )

    def _find_strategy(
        self,
        outcome: FilterOutcome,
        threshold: float,
        shortfall: int,
        pool: CircuitPool,
        deadline_ms: float | None = None,
        span: "object | None" = None,
    ) -> IncrementPlan:
        """Build and solve the increment problem for the withheld rows.

        Rows with negated lineage (e.g. from EXCEPT) cannot be lifted by
        raising base confidences and are excluded; if the shortfall exceeds
        the liftable rows, the request is infeasible.  *pool* is the result
        set's circuit pool: the withheld rows were compiled into it when
        the policy was enforced, so the problem reuses those circuits.
        """
        if threshold >= 1.0:
            # Policies release rows strictly above the threshold, so a
            # threshold of 1.0 admits nothing no matter how much is spent.
            raise InfeasibleIncrementError(
                "no result can exceed a confidence threshold of 1.0"
            )
        liftable = [
            row
            for row, _confidence in outcome.withheld
            if row.lineage.monotone
        ]
        if shortfall > len(liftable):
            raise InfeasibleIncrementError(
                f"{shortfall} more results required but only {len(liftable)} "
                f"withheld results can be improved"
            )
        # Policies release rows with confidence strictly above the
        # threshold; nudge the solver's target up so a plan landing exactly
        # on β cannot be filtered again after improvement.
        strict_threshold = min(1.0, threshold + 1e-6)
        problem = IncrementProblem.from_results(
            [row.lineage for row in liftable],
            self.db,
            threshold=strict_threshold,
            required_count=shortfall,
            delta=self.delta,
            pool=pool,
        )
        problem.check_feasible()
        return self._solve(problem, deadline_ms, span)

    def _solve(
        self,
        problem: IncrementProblem,
        deadline_ms: float | None = None,
        span: "object | None" = None,
    ) -> IncrementPlan:
        """Run the degradation chain (or the bare solver when unbudgeted).

        With no deadline and no fallback configured the primary solver is
        called directly on the current thread — no worker thread, no
        attempt spans — keeping unbudgeted runs byte-for-byte identical to
        the pre-runtime engine.
        """
        effective = deadline_ms if deadline_ms is not None else self.deadline_ms
        if effective is None and len(self.chain.attempts) == 1:
            return self.solver(problem)
        return self.chain.solve(problem, deadline_ms=effective, span=span)
