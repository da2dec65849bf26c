"""Deadline-aware solver runtime: budgets, anytime exhaustion, degradation.

The strategy-finding step is NP-hard, so branch-and-bound (and even the
polynomial solvers, on huge instances) can run longer than an interactive
caller is willing to wait.  This module gives every solver a cooperative
*budget*:

* :class:`Budget` — a wall-clock deadline plus node/probe limits, charged
  from the solver hot loops.  Time is only read every
  :data:`CHECK_INTERVAL` charges, so an unexhausted budget costs one
  integer increment and a comparison per node (the same cadence the
  branch-and-bound solver always used for its ``time_limit_seconds``).
* :class:`~repro.errors.TimeBudgetExceeded` — raised when the budget runs
  out *before any feasible plan exists*; it carries a
  :class:`PartialProgress` snapshot so callers can see how far the search
  got.  When a feasible incumbent does exist, solvers return it instead
  (``stats.budget_exhausted = True``) — the *anytime* contract.
* :class:`DegradationChain` — an ordered list of solver attempts (e.g.
  ``heuristic → greedy``) and the one way the engine runs a solver.  Each
  attempt runs on the calling thread with a fresh budget of the same
  deadline; the first feasible plan wins, and a
  :class:`~repro.errors.TimeBudgetExceeded` falls through to the next hop.
* :func:`run_frame` — what the four ``solve_*`` entry points share around
  their searches: stats, span, the budget's marks and the plan.

With no budget configured nothing changes: every ``budget is None`` check
short-circuits and the solvers' search paths — and therefore their plans —
are bit-identical to the unbudgeted code.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..errors import IncrementError, TimeBudgetExceeded
from ..obs import get_metrics, get_tracer, solver_run
from .problem import IncrementPlan, SolverStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.tuples import TupleId
    from .problem import IncrementProblem, SearchState

__all__ = [
    "CHECK_INTERVAL",
    "Budget",
    "PartialProgress",
    "SolverAttempt",
    "DegradationChain",
    "budget_exceeded",
    "RunFrame",
    "run_frame",
]

#: How many charges pass between wall-clock reads (matches the historical
#: branch-and-bound cadence, keeping budgeted-but-unexpired searches on the
#: exact node sequence of the unbudgeted solver).
CHECK_INTERVAL = 256


def is_deadline(value: Any) -> bool:
    """Whether *value* can be a deadline: a finite, positive number.  NaN
    (which JSON decodes) compares false both ways and would never expire;
    a bool is an ``int`` to Python but no duration."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value < math.inf
    )


class Budget:
    """Cooperative node / probe / wall-clock budget shared by the solvers.

    ``charge()`` counts one search node, ``charge_probe()`` one gain
    evaluation (what-if probe); both return ``True`` while the budget
    holds.  Exhaustion is sticky.  A *parent* budget (the request-level
    deadline) can be chained under a solver-local one, so e.g. the D&C
    solver's inner branch-and-bound honours both its own node limit and
    the engine's deadline with a single ``charge()`` call.
    """

    __slots__ = (
        "deadline_ms",
        "deadline",
        "node_limit",
        "probe_limit",
        "parent",
        "nodes",
        "probes",
        "exhausted",
        "_clock",
    )

    def __init__(
        self,
        deadline_seconds: float | None = None,
        node_limit: int | None = None,
        probe_limit: int | None = None,
        parent: "Budget | None" = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if deadline_seconds is not None and not is_deadline(deadline_seconds):
            raise IncrementError(
                f"deadline must be a finite positive number of seconds, "
                f"got {deadline_seconds!r}"
            )
        self._clock = clock
        self.deadline_ms = (
            deadline_seconds * 1000.0 if deadline_seconds is not None else None
        )
        self.deadline = (
            clock() + deadline_seconds if deadline_seconds is not None else None
        )
        self.node_limit = node_limit
        self.probe_limit = probe_limit
        self.parent = parent
        self.nodes = 0
        self.probes = 0
        self.exhausted = False

    @classmethod
    def from_deadline_ms(
        cls, deadline_ms: float, **kwargs: Any
    ) -> "Budget":
        """A budget expiring ``deadline_ms`` milliseconds from now."""
        return cls(deadline_seconds=deadline_ms / 1000.0, **kwargs)

    def charge(self, count: int = 1) -> bool:
        """Count *count* search nodes; ``True`` while the budget holds."""
        self.nodes += count
        if self.node_limit is not None and self.nodes > self.node_limit:
            self.exhausted = True
        elif (
            self.deadline is not None
            and self.nodes % CHECK_INTERVAL < count
            and self._clock() > self.deadline
        ):
            self.exhausted = True
        if self.parent is not None and not self.parent.charge(count):
            self.exhausted = True
        return not self.exhausted

    def charge_probe(self, count: int = 1) -> bool:
        """Count *count* gain probes; ``True`` while the budget holds."""
        self.probes += count
        if self.probe_limit is not None and self.probes > self.probe_limit:
            self.exhausted = True
        elif (
            self.deadline is not None
            and self.probes % CHECK_INTERVAL < count
            and self._clock() > self.deadline
        ):
            self.exhausted = True
        if self.parent is not None and not self.parent.charge_probe(count):
            self.exhausted = True
        return not self.exhausted

    def check(self) -> bool:
        """Force a wall-clock read; ``True`` while the budget holds.

        Used at coarse loop heads (restarts, partition groups) where a
        single iteration may be expensive relative to the deadline.
        """
        if not self.exhausted:
            if self.deadline is not None and self._clock() > self.deadline:
                self.exhausted = True
            if self.parent is not None and not self.parent.check():
                self.exhausted = True
        return not self.exhausted

    def remaining_seconds(self) -> float | None:
        """Seconds until the deadline (``None`` without one)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self._clock())

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"Budget(deadline_ms={self.deadline_ms}, "
            f"node_limit={self.node_limit}, probe_limit={self.probe_limit}, "
            f"nodes={self.nodes}, probes={self.probes}, "
            f"exhausted={self.exhausted})"
        )


@dataclass(frozen=True)
class PartialProgress:
    """How far a solver got before its budget ran out.

    Attached to :class:`~repro.errors.TimeBudgetExceeded` so callers (and
    the degradation chain's logs) can report the state of the abandoned
    search: the assignment built so far, its cost, and how many results
    it already pushed over the threshold.
    """

    algorithm: str
    cost: float
    satisfied_results: int
    required_results: int
    targets: "dict[TupleId, float]" = field(default_factory=dict)
    stats: "SolverStats | None" = None


def budget_exceeded(
    algorithm: str,
    problem: "IncrementProblem",
    state: "SearchState | None",
    stats: "SolverStats | None" = None,
    message: str | None = None,
) -> TimeBudgetExceeded:
    """A :class:`TimeBudgetExceeded` carrying the search's partial progress."""
    if state is not None:
        cost = state.cost
        satisfied = sum(1 for flag in state.satisfied_flags if flag)
        targets = state.snapshot_targets()
    else:
        cost, satisfied, targets = 0.0, 0, {}
    partial = PartialProgress(
        algorithm=algorithm,
        cost=cost,
        satisfied_results=satisfied,
        required_results=problem.required_count,
        targets=targets,
        stats=stats,
    )
    if message is None:
        message = (
            f"{algorithm} budget exhausted before a feasible plan was found "
            f"({satisfied}/{problem.required_count} required results "
            f"satisfied so far)"
        )
    return TimeBudgetExceeded(message, algorithm=algorithm, partial=partial)


@dataclass
class RunFrame:
    """One solver run in progress: what :func:`run_frame` yields."""

    algorithm: str
    budget: "Budget | None"
    stats: SolverStats
    span: Any

    def plan(
        self,
        targets: "dict[TupleId, float]",
        cost: float,
        satisfied: tuple[int, ...],
        algorithm: str | None = None,
    ) -> IncrementPlan:
        """The run's answer.  On an exhausted budget it is the anytime
        incumbent: the stats say so and its cost is published as
        ``solver.<algorithm>.incumbent_cost``.  *algorithm* relabels the
        plan only (``greedy-1phase``)."""
        stats = self.stats
        if self.budget is not None and self.budget.exhausted:
            stats.completed = False
            stats.budget_exhausted = True
        if stats.budget_exhausted:
            self.span.set_attribute("solver.incumbent_cost", cost)
            get_metrics().gauge(
                f"solver.{self.algorithm}.incumbent_cost"
            ).set(cost)
        self.span.set_attribute("cost", cost)
        return IncrementPlan(
            targets, cost, satisfied, algorithm or self.algorithm, stats
        )


@contextmanager
def run_frame(
    algorithm: str,
    problem: "IncrementProblem",
    budget: "Budget | None",
    **attributes: Any,
) -> Iterator[RunFrame]:
    """The frame every ``solve_*`` entry point runs its search in.

    Opens the ``solver.<algorithm>`` span (instance size, *attributes*,
    the budget's deadline) around fresh :class:`SolverStats`, which
    :func:`~repro.obs.solver_run` times and publishes on the way out —
    also when the search raises; :meth:`RunFrame.plan` closes the run.
    """
    stats = SolverStats()
    with solver_run(
        algorithm,
        stats,
        results=len(problem.results),
        tuples=len(problem.tuples),
        **attributes,
    ) as span:
        if budget is not None and budget.deadline_ms is not None:
            span.set_attribute("budget.deadline_ms", budget.deadline_ms)
        yield RunFrame(algorithm, budget, stats, span)


#: A solver the chain can run.  It is called as ``solve(problem, budget)``
#: with *budget* ``None`` when no deadline applies, so a custom solver is
#: ``def solve(problem, budget=None)`` — what ``make_solver`` returns.
BudgetedSolver = Callable[["IncrementProblem", "Budget | None"], "IncrementPlan"]


@dataclass(frozen=True)
class SolverAttempt:
    """One hop of a degradation chain."""

    name: str
    solve: BudgetedSolver


class DegradationChain:
    """Ordered solver attempts with per-attempt budgets and fallback.

    Each attempt runs on the **calling thread**, inside its own
    ``pcqe.solver_attempt`` span, and receives a *fresh* budget with the
    configured deadline: the fallback hop must be allowed to actually run,
    which it could not if it inherited the exhausted budget of the attempt
    it replaces.  Budgets are cooperative — a solver returns (or raises)
    shortly after its own budget expires — so the worst-case wall time is
    ``deadline × len(attempts)``.  A hop can only follow a
    :class:`TimeBudgetExceeded`; without a deadline a solver built from a
    name never raises one, and the chain is one direct call.

    Resolution order per attempt:

    * the solver returns a plan → done (an exhausted budget just means the
      plan is the best-so-far incumbent, recorded on the span);
    * the solver raises :class:`TimeBudgetExceeded` → fall through to the
      next attempt (``pcqe.fallback_hops`` is incremented);
    * any other error propagates (a genuinely infeasible problem is
      infeasible for every hop).

    If every attempt times out, the **last** attempt's
    :class:`TimeBudgetExceeded` — the one closest to a feasible plan, by
    construction of the chain — propagates to the caller.
    """

    def __init__(
        self,
        attempts: Sequence[SolverAttempt],
        deadline_ms: float | None = None,
    ) -> None:
        if not attempts:
            raise IncrementError("a degradation chain needs at least one solver")
        if deadline_ms is not None and not is_deadline(deadline_ms):
            raise IncrementError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        self.attempts: tuple[SolverAttempt, ...] = tuple(attempts)
        self.deadline_ms = deadline_ms

    def solve(
        self,
        problem: "IncrementProblem",
        deadline_ms: float | None = None,
        span: Any = None,
    ) -> "IncrementPlan":
        """Run the chain; *span* (if given) receives the summary attributes."""
        effective = deadline_ms if deadline_ms is not None else self.deadline_ms
        tracer = get_tracer()
        metrics = get_metrics()
        last_error: TimeBudgetExceeded | None = None
        for hop, attempt in enumerate(self.attempts):
            budget = (
                Budget.from_deadline_ms(effective)
                if effective is not None
                else None
            )
            with tracer.span(
                "pcqe.solver_attempt", solver=attempt.name, hop=hop
            ) as attempt_span:
                if effective is not None:
                    attempt_span.set_attribute("budget.deadline_ms", effective)
                try:
                    plan = attempt.solve(problem, budget)
                except TimeBudgetExceeded as error:
                    attempt_span.set_attribute("budget.exhausted", True)
                    attempt_span.set_attribute("timed_out", True)
                    last_error = error
                    if hop + 1 < len(self.attempts):
                        metrics.counter("pcqe.fallback_hops").inc()
                        next_name = self.attempts[hop + 1].name
                        attempt_span.set_attribute("fallback_to", next_name)
                        if span is not None:
                            span.add_event(
                                "pcqe.fallback",
                                from_solver=attempt.name,
                                to_solver=next_name,
                            )
                    continue
                exhausted = budget.exhausted if budget is not None else False
                attempt_span.set_attribute("budget.exhausted", exhausted)
                attempt_span.set_attribute("cost", plan.total_cost)
                # A plan is *degraded* when it is not what the primary
                # solver would have produced at leisure: either a
                # fallback hop ran, or the winning attempt returned its
                # best-so-far incumbent on an exhausted budget.  Callers
                # (the serving layer) surface this as `degraded: true`.
                degraded = bool(hop) or exhausted
                plan.degraded = degraded
                if span is not None:
                    span.set_attribute("solver", attempt.name)
                    span.set_attribute("fallback_hops", hop)
                    if effective is not None:
                        span.set_attribute("budget.deadline_ms", effective)
                    span.set_attribute("budget.exhausted", exhausted)
                    if degraded:
                        span.set_attribute("degraded", True)
                if degraded:
                    metrics.counter("pcqe.degraded_plans").inc()
                if hop:
                    metrics.counter("pcqe.fallback_successes").inc()
                return plan
        if span is not None:
            span.set_attribute("fallback_hops", len(self.attempts) - 1)
            span.set_attribute("budget.exhausted", True)
        assert last_error is not None
        raise last_error

