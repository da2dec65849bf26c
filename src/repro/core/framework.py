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

One request or many (the §4 multi-query extension) run through the same
function: every request is evaluated and filtered, every shortfall becomes
one requirement group of one increment problem, and every request leaves
through one settlement — so ``execute(r)`` is ``execute_many([r])``'s only
result.

The approval hook models the paper's "the increment cost ... will be
reported to the manager.  If the manager agrees ... actions will be taken";
pass ``approval=lambda quote: True`` (the default) for an auto-approving
system, or a callback that asks a human / checks a budget.
"""


from __future__ import annotations

import enum
import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..algebra.rows import ResultSet
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
    LocalSearchOptions,
    SimulatedImprovementService,
    SolverAttempt,
    solve_dnc,
    solve_greedy,
    solve_heuristic,
    solve_local_search,
)
from ..increment.improvement import ImprovementReceipt, ImprovementService
from ..increment.runtime import is_deadline
from ..policy import FilterOutcome, PolicyEvaluator, PolicyStore
from ..policy.enforcement import OutcomeSide
from ..sql import run_sql
from ..storage.database import Database

__all__ = [
    "QueryRequest",
    "QueryStatus",
    "PCQEResult",
    "BatchResult",
    "CostQuote",
    "PCQEngine",
    "SOLVERS",
    "make_solver",
    "greedy_fallback",
]

Solver = Callable[..., IncrementPlan]

logger = logging.getLogger(__name__)

#: The solvers reachable by name: name -> (solve function, options class).
SOLVERS: dict[str, tuple[Solver, type]] = {
    "heuristic": (solve_heuristic, HeuristicOptions),
    "greedy": (solve_greedy, GreedyOptions),
    "dnc": (solve_dnc, DncOptions),
    "local-search": (solve_local_search, LocalSearchOptions),
}


def make_solver(
    name: str, deadline_ms: float | None = None, **options
) -> Solver:
    """A solver callable from a name in :data:`SOLVERS`.

    Keyword arguments are forwarded into the corresponding options class.
    The returned callable accepts ``(problem, budget=None)``; with
    *deadline_ms* set, calls without an explicit budget get a fresh
    :class:`~repro.increment.Budget` expiring that many milliseconds after
    the call starts.
    """
    if name not in SOLVERS:
        raise ReproError(f"unknown solver {name!r}")
    search, options_class = SOLVERS[name]
    configured = options_class(**options)

    def solve(problem, budget=None):
        if budget is None and deadline_ms is not None:
            budget = Budget.from_deadline_ms(deadline_ms)
        return search(problem, configured, budget)

    solve.__name__ = name
    return solve


def greedy_fallback(solver: str) -> tuple[str, ...]:
    """The fallback hops behind a primary solver named *solver*.

    A non-greedy primary whose budget runs out falls back to greedy —
    polynomial, and feasible whenever the problem is — instead of failing
    the request.  A greedy primary has no cheaper hop: its anytime
    incumbent is the degradation (``docs/ROBUSTNESS.md``).  Without a
    deadline the hop is never taken, so callers pass this unconditionally.
    """
    return () if solver == "greedy" else ("greedy",)


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
        if self.deadline_ms is not None and not is_deadline(self.deadline_ms):
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
    #: The outcome's released side: ``(row, confidence)`` pairs, built
    #: when first read (:attr:`rows` and :attr:`confidences` build none).
    released: OutcomeSide
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
        return self.released.values()

    @property
    def confidences(self) -> list[float]:
        """The released rows' confidences, in :attr:`rows` order."""
        return self.released.confidences

    @property
    def released_fraction(self) -> float:
        total = len(self.released) + self.withheld_count
        return 1.0 if total == 0 else len(self.released) / total


@dataclass
class _Evaluation:
    """One request between its evaluation and its settlement."""

    request: QueryRequest
    result: ResultSet
    threshold: float
    #: The latest enforcement pass (replaced by the re-evaluation).
    outcome: FilterOutcome
    shortfall: int
    query_id: str | None = None
    #: ``{tuple index: (confidence, verdict)}`` of the last audited pass.
    decisions: "dict[int, tuple[float, str]] | None" = None


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
        times out (``heuristic → greedy`` is the canonical chain, see
        :func:`greedy_fallback`); each attempt gets a fresh budget of
        *deadline_ms* milliseconds.  A request's own ``deadline_ms``
        overrides the engine default.  With no deadline anywhere the
        primary runs unbudgeted and no hop is ever taken.

        *audit* attaches an :class:`~repro.obs.audit.AuditLog`: every
        request — alone or in a batch — then journals its own trail: one
        record per result tuple per enforcement pass (policy triple,
        confidence, contributing lineage, verdict), the increment it was
        quoted or given, and the final outcome (see
        ``docs/OBSERVABILITY.md``).

        *engine* is ``columnar`` or the row-at-a-time ``native``
        reference (see ``docs/ENGINES.md``); results are identical on
        both, and any other name is rejected here.
        """
        self.db = db
        self.policies = policies
        self.improvement: ImprovementService = (
            improvement if improvement is not None else SimulatedImprovementService()
        )
        self.approval = approval if approval is not None else (lambda _quote: True)
        self.delta = delta
        self.audit = audit
        self.engine = check_engine(engine)
        #: The one way a solver runs: primary first, then each fallback.
        self.chain = DegradationChain(
            [self._attempt(entry) for entry in (solver, *fallback)],
            deadline_ms=deadline_ms,
        )
        self._evaluator = PolicyEvaluator(policies)

    @staticmethod
    def _attempt(entry: "str | Solver") -> SolverAttempt:
        if isinstance(entry, str):
            return SolverAttempt(entry, make_solver(entry))
        name = getattr(entry, "__name__", None) or type(entry).__name__
        return SolverAttempt(name, entry)

    # -- pipeline ----------------------------------------------------------

    def execute(self, request: QueryRequest, user: str) -> PCQEResult:
        """Run the full Figure-1 pipeline for *user*'s request.

        With ``request.profile`` set, spans for the run are captured (the
        tracer is enabled for the duration if it was not already) and a
        :class:`~repro.obs.ProfileReport` is attached to the result.
        """
        batch = self._run(
            [request], user, "pcqe.execute", purpose=request.purpose
        )
        return batch.results[0]

    def execute_many(
        self, requests: "list[QueryRequest]", user: str
    ) -> "BatchResult":
        """The §4 multi-query extension: several queries, one increment.

        Every query is evaluated and policy-filtered; the shortfalls are
        combined into a single multi-requirement increment problem (the
        search space is the union of all queries' base tuples, and a
        solution must satisfy *every* query's requirement).  One quote is
        issued and — on approval — one improvement benefits all queries.
        The batch is all-or-nothing: every request that was short shares
        the increment's status (``INFEASIBLE``, ``QUOTED`` or
        ``IMPROVED``); a request with no shortfall is ``SATISFIED``
        whatever happens to its neighbours.
        """
        return self._run(
            requests, user, "pcqe.execute_many", queries=len(requests)
        )

    def _run(
        self,
        requests: "list[QueryRequest]",
        user: str,
        root_name: str,
        **attributes: Any,
    ) -> BatchResult:
        """One call's frame: the root span, the latency observation and,
        for requests that asked, the profile."""
        tracer, metrics = get_tracer(), get_metrics()
        profiled = any(request.profile for request in requests)
        started = time.monotonic_ns()
        try:
            before = metrics.snapshot() if profiled else None
            with tracer.capture() if profiled else nullcontext() as sink:
                with tracer.span(root_name, user=user, **attributes) as root:
                    batch = self._pipeline(requests, user, root)
            if profiled:
                report = ProfileReport.from_spans(
                    sink.spans,
                    root=root_name,
                    metrics=metrics_diff(before, metrics.snapshot()),
                )
                for request, result in zip(requests, batch.results):
                    if request.profile:
                        result.profile = report
            return batch
        finally:
            metrics.histogram(
                "pcqe.ask.latency_seconds", TIMING_BUCKETS
            ).observe((time.monotonic_ns() - started) / 1e9)

    def _pipeline(
        self, requests: "list[QueryRequest]", user: str, root: Any
    ) -> BatchResult:
        """Figure 1, for one request or many: evaluate and enforce each,
        find one increment for every shortfall, quote it, apply it,
        re-enforce — leaving through :meth:`_settle` at every exit."""
        tracer = get_tracer()
        evaluations = [self._evaluate(request, user) for request in requests]
        if self.audit is not None:
            root.set_attribute(
                "audit.query_id",
                ",".join(str(each.query_id) for each in evaluations),
            )
        short = [each for each in evaluations if each.shortfall]
        if not short:
            return self._settle(evaluations, QueryStatus.SATISFIED, root)

        shortfall = sum(each.shortfall for each in short)
        # One solve serves the whole batch; the strictest per-request
        # deadline (if any) governs it.
        deadlines = [r.deadline_ms for r in requests if r.deadline_ms is not None]
        try:
            with tracer.span(
                "pcqe.strategy_finding", shortfall=shortfall
            ) as span:
                problem = self._increment_problem(short)
                plan = self.chain.solve(
                    problem, deadline_ms=min(deadlines, default=None), span=span
                )
                plan.read = problem.initial_assignment()
                span.set_attribute("cost", plan.total_cost)
        except InfeasibleIncrementError as error:
            logger.warning(
                "infeasible increment for user=%s purpose=%s: %s",
                user,
                "/".join(sorted({each.request.purpose for each in short})),
                error,
            )
            get_metrics().counter("pcqe.infeasible").inc()
            return self._settle(evaluations, QueryStatus.INFEASIBLE, root)
        # The degradation chain stamps the plan when it came from a
        # fallback hop or an exhausted-budget incumbent.
        if plan.degraded:
            root.set_attribute("degraded", True)
        quote = CostQuote(plan, plan.total_cost, shortfall)
        if not self.approval(quote):
            return self._settle(evaluations, QueryStatus.QUOTED, root, quote)

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
        for each in evaluations:
            with tracer.span("pcqe.reevaluation") as span:
                # Same ResultSet object as the first enforcement pass, so
                # the row circuits compiled there are evaluated again with
                # the improved confidences instead of being rebuilt.  A
                # request that was not short is re-enforced too: what it
                # releases must hold against the database as it is now.
                span.set_attribute(
                    "circuit.reused", each.result.has_compiled_circuits
                )
                each.outcome = self._evaluator.apply_threshold(
                    each.result, self.db, each.threshold
                )
        logger.info(
            "improved %d tuple(s) for %.4f for user=%s over %d request(s)",
            receipt.tuples_improved,
            receipt.total_cost,
            user,
            len(evaluations),
        )
        return self._settle(
            evaluations, QueryStatus.IMPROVED, root, quote, receipt
        )

    def _evaluate(self, request: QueryRequest, user: str) -> _Evaluation:
        """Elements 1–3 for one request: run the query with lineage,
        enforce its policy, open its audit trail."""
        tracer = get_tracer()
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
        evaluation = _Evaluation(
            request,
            result,
            threshold,
            outcome,
            outcome.shortfall(request.required_fraction),
        )
        if self.audit is not None:
            policy = self.policies.select_policy(user, request.purpose)
            evaluation.query_id = self.audit.begin_query(
                user=user,
                purpose=request.purpose,
                role=policy.role,
                threshold=threshold,
                required_fraction=request.required_fraction,
                sql=request.sql,
                seq=getattr(self.db, "seq", None),
            )
            self.audit.record_decisions(
                evaluation.query_id, self._decisions(evaluation, "initial")
            )
        return evaluation

    def _increment_problem(
        self, short: "list[_Evaluation]"
    ) -> IncrementProblem:
        """The one increment problem for every request that is short: one
        requirement group per request over its liftable withheld rows.

        A product-form result (one whose confidences were products of its
        rows' base tuples) hands over each withheld row's tuples in factor
        order, read off its batch: no row, formula or circuit is built, and
        the solver multiplies them.  Otherwise each withheld row's lineage
        is read; rows with negated lineage (e.g. from EXCEPT) cannot be
        lifted by raising base confidences and are excluded.  A request
        whose shortfall exceeds its liftable rows makes the problem
        infeasible.  With one result set whose rows were compiled when the
        policy was enforced, the problem compiles into that set's circuit
        pool and every compile is a memo hit.
        """
        lineages: list = []
        groups: list[tuple[range, int]] = []
        for each in short:
            if each.threshold >= 1.0:
                # Policies release rows strictly above the threshold, so a
                # threshold of 1.0 admits nothing no matter what is spent.
                raise InfeasibleIncrementError(
                    "no result can exceed a confidence threshold of 1.0"
                )
            withheld = each.outcome.withheld
            liftable = each.result.row_factors(withheld.positions)
            if liftable is None:
                liftable = [
                    row.lineage
                    for row, _confidence in withheld
                    if row.lineage.monotone
                ]
            if each.shortfall > len(liftable):
                raise InfeasibleIncrementError(
                    f"{each.shortfall} more results required but only "
                    f"{len(liftable)} withheld results can be improved"
                )
            start = len(lineages)
            lineages.extend(liftable)
            groups.append((range(start, len(lineages)), each.shortfall))
        # Policies release rows with confidence strictly above the
        # threshold; nudge the solver's target up so a plan landing exactly
        # on β cannot be filtered again after improvement.  The solvers
        # share one β, so a batch targets the strictest one involved
        # (thresholds usually coincide; this never under-delivers).
        strict = min(1.0, max(each.threshold for each in short) + 1e-6)
        problem = IncrementProblem.from_results(
            lineages,
            self.db,
            threshold=strict,
            delta=self.delta,
            pool=(
                short[0].result.circuit_pool
                if len(short) == 1 and short[0].result.has_compiled_circuits
                else None
            ),
            requirement_groups=groups,
        )
        problem.check_feasible()
        return problem

    def _settle(
        self,
        evaluations: "list[_Evaluation]",
        status: QueryStatus,
        root: Any,
        quote: CostQuote | None = None,
        receipt: ImprovementReceipt | None = None,
    ) -> BatchResult:
        """The pipeline's one exit: stamp the span, close every audit
        trail, build every result.

        *status* is the increment's fate and the status of every request
        that was short; the others are ``SATISFIED`` and carry no quote.
        A trail records the increment when its request was quoted it or —
        once applied — when it changed one of the request's decisions.
        """
        root.set_attribute("status", status.value)
        audit = self.audit
        if audit is not None and quote is not None:
            targets = {
                str(tid): conf for tid, conf in quote.plan.targets.items()
            }
        results = []
        for each in evaluations:
            short = each.shortfall > 0
            settled = status if short else QueryStatus.SATISFIED
            degraded = short and quote is not None and quote.plan.degraded
            outcome = each.outcome
            if audit is not None:
                # After a write-back: a fresh decision record per tuple it
                # changed, so replay can reconstruct the verdict flip.
                applied = receipt is not None
                changed = self._decisions(each, "post_increment") if applied else []
                if quote is not None and (short or changed):
                    audit.record_increment(
                        each.query_id,
                        approved=applied,
                        cost=receipt.total_cost if applied else quote.cost,
                        targets=targets,
                    )
                if applied:
                    audit.record_decisions(each.query_id, changed)
                audit.end_query(
                    each.query_id,
                    status=settled.value,
                    released=len(outcome.released),
                    withheld=len(outcome.withheld),
                    shortfall=each.shortfall,
                    degraded=degraded,
                )
            results.append(
                PCQEResult(
                    status=settled,
                    threshold=each.threshold,
                    released=outcome.released,
                    withheld_count=len(outcome.withheld),
                    outcome=outcome,
                    quote=quote if short else None,
                    receipt=receipt if short else None,
                    raw_result=each.result,
                    degraded=degraded,
                )
            )
        return BatchResult(results, quote, receipt)

    def _decisions(self, each: _Evaluation, phase: str) -> list[tuple]:
        """The audit entries of one enforcement pass, in result order.

        Tuple ids are positional (``t0``, ``t1``, …) within the query's
        result set — stable across both enforcement passes because
        re-evaluation reuses the same :class:`ResultSet` object — and so
        are the verdicts, read off the outcome's two sides.  Each entry
        carries the base-tuple lineage ids (a still-deferred result's tid
        columns: a trail builds no formula) and the confidences they held
        *at decision time*, read from the database in one batch.

        Tuples whose confidence and verdict equal the previous pass's
        (``each.decisions``, which this pass then replaces) are skipped —
        their earlier record remains the decision of record, and the
        journal only grows where the increment actually changed something.
        """
        result, previous, outcome = each.result, each.decisions, each.outcome
        base = (
            self.db.confidences(result.base_tuples()) if len(result) else {}
        )
        labels = {tid: str(tid) for tid in base}
        decided = each.decisions = {}
        for side, verdict in (
            (outcome.released, "released"),
            (outcome.withheld, "blocked"),
        ):
            for index, confidence in zip(side.positions, side.confidences):
                decided[index] = (confidence, verdict)
        entries = []
        rows = zip(result.values(), result.row_base_tuples())
        for index, (values, variables) in enumerate(rows):
            confidence, verdict = decided[index]
            if previous is not None and previous.get(index) == decided[index]:
                continue
            lineage = [
                (labels[tid], base[tid])
                for tid in sorted(
                    variables, key=lambda tid: (tid.table, tid.ordinal)
                )
            ]
            entries.append(
                (f"t{index}", values, confidence, verdict, phase, lineage)
            )
        return entries
