"""Unit tests for the multi-query extension (paper §4, last paragraph).

Multiple queries contribute requirement groups to one increment problem;
a solution must satisfy every query's requirement simultaneously, and the
search space is the union of all queries' base tuples.
"""

import pytest

from repro import PCQEngine, QueryRequest, QueryStatus
from repro.cost import LinearCost
from repro.errors import IncrementError, InfeasibleIncrementError
from repro.increment.runtime import budget_exceeded
from repro.obs import MetricsRegistry, set_metrics
from repro.obs.audit import (
    AuditLog,
    build_trails,
    explain_decision,
    read_audit_log,
)
from repro.increment import (
    BaseTupleState,
    IncrementProblem,
    SearchState,
    solve_dnc,
    solve_greedy,
    solve_heuristic,
)
from repro.lineage import ConfidenceFunction, lineage_or, var
from repro.policy import PolicyStore
from repro.storage import Database, REAL, Schema, TEXT, TupleId

A, B, C, D = (TupleId("t", i) for i in range(4))


def multi_problem():
    """Two 'queries': group 0 = results {0, 1}, group 1 = results {1, 2}."""
    states = {
        A: BaseTupleState(A, 0.1, LinearCost(100.0)),
        B: BaseTupleState(B, 0.1, LinearCost(10.0)),
        C: BaseTupleState(C, 0.1, LinearCost(50.0)),
    }
    results = [
        ConfidenceFunction(var(A), "q0-only"),
        ConfidenceFunction(var(B), "shared"),
        ConfidenceFunction(var(C), "q1-only"),
    ]
    return IncrementProblem(
        results,
        states,
        threshold=0.5,
        delta=0.1,
        requirement_groups=[([0, 1], 1), ([1, 2], 1)],
    )


class TestProblemGroups:
    def test_required_count_is_sum(self):
        problem = multi_problem()
        assert problem.is_multi_requirement
        assert problem.required_count == 2

    def test_groups_by_result(self):
        problem = multi_problem()
        assert problem.groups_by_result == [[0], [0, 1], [1]]

    def test_requirements_met(self):
        problem = multi_problem()
        assert problem.requirements_met([False, True, False])  # shared covers both
        assert not problem.requirements_met([True, False, False])
        assert problem.requirements_met([True, False, True])

    def test_group_count_validation(self):
        states = {A: BaseTupleState(A, 0.1, LinearCost(1.0))}
        results = [ConfidenceFunction(var(A))]
        with pytest.raises(InfeasibleIncrementError):
            IncrementProblem(
                results, states, 0.5, requirement_groups=[([0], 2)]
            )
        with pytest.raises(IncrementError):
            IncrementProblem(
                results, states, 0.5, requirement_groups=[([0, 7], 1)]
            )
        with pytest.raises(IncrementError):
            IncrementProblem(
                results, states, 0.5, requirement_groups=[([0], -1)]
            )

    def test_check_feasible_per_group(self):
        states = {
            A: BaseTupleState(A, 0.1, LinearCost(1.0, max_confidence=0.3)),
            B: BaseTupleState(B, 0.1, LinearCost(1.0)),
        }
        results = [ConfidenceFunction(var(A)), ConfidenceFunction(var(B))]
        problem = IncrementProblem(
            results,
            states,
            0.5,
            requirement_groups=[([0], 1), ([1], 1)],
        )
        with pytest.raises(InfeasibleIncrementError):
            problem.check_feasible()

    def test_clamped_to_achievable(self):
        states = {
            A: BaseTupleState(A, 0.1, LinearCost(1.0, max_confidence=0.3)),
            B: BaseTupleState(B, 0.1, LinearCost(1.0)),
        }
        results = [ConfidenceFunction(var(A)), ConfidenceFunction(var(B))]
        problem = IncrementProblem(
            results, states, 0.5,
            requirement_groups=[([0], 1), ([1], 1)],
        )
        clamped = problem.clamped_to_achievable()
        clamped.check_feasible()  # no longer raises
        assert clamped.requirement_groups[0][1] == 0
        assert clamped.requirement_groups[1][1] == 1


class TestSearchStateGroups:
    def test_group_counters_track_flips(self):
        problem = multi_problem()
        state = SearchState(problem)
        assert state.unmet_groups == 2
        state.set_value(problem.slot_of[B], 0.6)  # satisfies the shared result
        assert state.unmet_groups == 0
        assert state.is_satisfied()
        assert state.group_counts == [1, 1]

    def test_undo_restores_groups(self):
        problem = multi_problem()
        state = SearchState(problem)
        slot = problem.slot_of[B]
        old = state.values[slot]
        undo = state.set_value(slot, 0.6)
        state.undo(slot, old, undo)
        assert state.unmet_groups == 2
        assert state.group_counts == [0, 0]

    def test_result_needed(self):
        problem = multi_problem()
        state = SearchState(problem)
        assert state.needed[0]
        state.set_value(problem.slot_of[A], 0.6)  # group 0 met
        assert not state.needed[0]  # satisfied itself
        assert state.needed[2]  # group 1 still unmet
        assert state.needed[1]  # below β and in unmet group 1
        # Meeting group 1 too leaves nothing needed; undoing restores it.
        slot = problem.slot_of[B]
        undo = state.set_value(slot, 0.6)
        assert state.needed == [False] * len(problem.results)
        state.undo(slot, 0.1, undo)
        assert state.needed[2] and state.needed[1]


class TestSolversOnMultiProblems:
    @pytest.mark.parametrize(
        "solve", [solve_heuristic, solve_greedy, solve_dnc]
    )
    def test_plan_meets_every_group(self, solve):
        problem = multi_problem()
        plan = solve(problem)
        assignment = problem.initial_assignment()
        assignment.update(plan.targets)
        flags = [
            problem.satisfied(result.evaluate(assignment))
            for result in problem.results
        ]
        assert problem.requirements_met(flags)

    def test_shared_result_is_cheapest_answer(self):
        # Lifting the shared result (B at 10/unit) covers both queries —
        # all solvers should find that over lifting A (100) and C (50).
        problem = multi_problem()
        for solve in (solve_heuristic, solve_greedy, solve_dnc):
            plan = solve(problem)
            assert set(plan.targets) == {B}, solve.__name__
            # B rises from 0.1 to the 0.5 threshold at 10 per unit.
            assert plan.total_cost == pytest.approx(10.0 * 0.4)

    def test_subproblem_maps_groups_proportionally(self):
        problem = multi_problem()
        sub = problem.subproblem([1, 2])
        assert sub.is_multi_requirement
        # Group 0 keeps its shared member; group 1 keeps both members.
        assert len(sub.requirement_groups) == 2


class TestEngineBatch:
    def _setup(self):
        db = Database()
        table = db.create_table("m", Schema.of(("k", TEXT), ("grp", TEXT)))
        for key, group in [("a", "g1"), ("b", "g1"), ("c", "g2"), ("d", "g2")]:
            table.insert(
                [key, group], confidence=0.2, cost_model=LinearCost(100.0)
            )
        policies = PolicyStore(default_threshold=0.5)
        policies.add_role("r")
        policies.add_purpose("p")
        policies.add_user("u", roles=["r"])
        return db, policies

    def test_batch_improves_all_queries_with_one_receipt(self):
        db, policies = self._setup()
        engine = PCQEngine(db, policies, solver="greedy")
        batch = engine.execute_many(
            [
                QueryRequest("SELECT k FROM m WHERE grp = 'g1'", "p", 1.0),
                QueryRequest("SELECT k FROM m WHERE grp = 'g2'", "p", 0.5),
            ],
            user="u",
        )
        assert batch.improved
        assert len(batch.results) == 2
        assert batch.results[0].released_fraction == 1.0
        assert batch.results[1].released_fraction >= 0.5
        # One receipt covers both queries.
        assert batch.receipt is not None
        assert batch.quote.shortfall == 3  # 2 for g1 + 1 for g2

    def test_batch_without_shortfall_skips_solver(self):
        db, policies = self._setup()
        for row in list(db.table("m").scan()):
            db.set_confidence(row.tid, 0.9)
        engine = PCQEngine(db, policies)
        batch = engine.execute_many(
            [QueryRequest("SELECT k FROM m", "p", 1.0)], user="u"
        )
        assert not batch.improved
        assert batch.quote is None
        assert batch.results[0].status is QueryStatus.SATISFIED

    def test_batch_declined_quote(self):
        db, policies = self._setup()
        engine = PCQEngine(
            db, policies, solver="greedy", approval=lambda _q: False
        )
        batch = engine.execute_many(
            [QueryRequest("SELECT k FROM m", "p", 1.0)], user="u"
        )
        assert not batch.improved
        assert batch.quote is not None
        assert all(r.status is QueryStatus.QUOTED for r in batch.results)
        # Database untouched.
        assert all(row.confidence == 0.2 for row in db.table("m").scan())

    def test_batch_declined_quote_leaves_a_satisfied_neighbour_alone(self):
        db, policies = self._setup()
        engine = PCQEngine(
            db, policies, solver="greedy", approval=lambda _q: False
        )
        batch = engine.execute_many(
            [
                QueryRequest("SELECT k FROM m WHERE grp = 'g1'", "p", 0.0),
                QueryRequest("SELECT k FROM m WHERE grp = 'g2'", "p", 1.0),
            ],
            user="u",
        )
        satisfied, quoted = batch.results
        assert satisfied.status is QueryStatus.SATISFIED
        assert satisfied.quote is None
        assert quoted.status is QueryStatus.QUOTED
        assert quoted.quote is batch.quote
        assert batch.quote.shortfall == 2

    def test_request_without_shortfall_stays_satisfied_beside_improved(self):
        db, policies = self._setup()
        engine = PCQEngine(db, policies, solver="greedy")
        batch = engine.execute_many(
            [
                QueryRequest("SELECT k FROM m WHERE grp = 'g1'", "p", 0.0),
                QueryRequest("SELECT k FROM m WHERE grp = 'g2'", "p", 1.0),
            ],
            user="u",
        )
        satisfied, improved = batch.results
        assert satisfied.status is QueryStatus.SATISFIED
        assert satisfied.quote is None and satisfied.receipt is None
        assert improved.status is QueryStatus.IMPROVED
        assert improved.receipt is batch.receipt
        assert improved.released_fraction == 1.0

    def test_infeasible_batch_answers_infeasible_and_touches_nothing(self):
        db, policies = self._setup()
        policies.add_purpose("certain")
        policies.add_policy("r", "certain", 1.0)
        engine = PCQEngine(db, policies, solver="greedy")
        batch = engine.execute_many(
            [
                QueryRequest("SELECT k FROM m WHERE grp = 'g1'", "p", 1.0),
                QueryRequest("SELECT k FROM m WHERE grp = 'g2'", "certain", 1.0),
            ],
            user="u",
        )
        assert [r.status for r in batch.results] == [QueryStatus.INFEASIBLE] * 2
        assert batch.quote is None and batch.receipt is None
        assert all(r.quote is None for r in batch.results)
        assert all(row.confidence == 0.2 for row in db.table("m").scan())

    def test_fallback_hop_marks_the_short_requests_degraded(self):
        db, policies = self._setup()

        def late(problem, budget=None):
            raise budget_exceeded("late", problem, None)

        engine = PCQEngine(db, policies, solver=late, fallback=("greedy",))
        batch = engine.execute_many(
            [
                QueryRequest("SELECT k FROM m WHERE grp = 'g1'", "p", 0.0),
                QueryRequest("SELECT k FROM m WHERE grp = 'g2'", "p", 1.0),
            ],
            user="u",
        )
        assert batch.quote.plan.degraded
        assert [r.degraded for r in batch.results] == [False, True]
        assert batch.results[1].status is QueryStatus.IMPROVED

    def test_batch_counts_every_request_and_one_latency(self):
        db, policies = self._setup()
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            PCQEngine(db, policies, solver="greedy").execute_many(
                [
                    QueryRequest("SELECT k FROM m", "p", 0.0),
                    QueryRequest("SELECT k FROM m WHERE grp = 'g1'", "p", 0.0),
                    QueryRequest("SELECT k FROM m WHERE grp = 'g2'", "p", 0.5),
                ],
                user="u",
            )
        finally:
            set_metrics(previous)
        snapshot = registry.snapshot()
        assert snapshot["pcqe.queries"] == 3
        assert snapshot["pcqe.ask.latency_seconds"]["count"] == 1

    def test_audited_batch_journals_a_trail_per_request(self, tmp_path):
        """Regression: ``execute_many`` on an audited engine used to journal
        nothing at all — releases and a write-back with no audit frame."""
        db, policies = self._setup()
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            batch = PCQEngine(
                db, policies, solver="greedy", audit=log
            ).execute_many(
                [
                    QueryRequest("SELECT k FROM m WHERE grp = 'g1'", "p", 1.0),
                    QueryRequest("SELECT k FROM m", "p", 0.0),
                ],
                user="u",
            )
        assert batch.improved
        records = read_audit_log(path)
        trails = build_trails(records)
        assert list(trails) == ["q1", "q2"]
        for trail, result in zip(trails.values(), batch.results):
            assert trail.query is not None and trail.outcome is not None
            initial = [r for r in trail.decisions if r["phase"] == "initial"]
            assert len(initial) == len(result.raw_result)
            assert trail.outcome["released"] == len(result.released)
        improved, neighbour = trails.values()
        assert improved.outcome["status"] == "improved"
        assert neighbour.outcome["status"] == "satisfied"
        # The write-back is in the trail it was quoted for — and in the
        # neighbour's, whose g1 rows it lifted over the threshold too.
        (increment,) = improved.increments
        assert increment["approved"] and increment["cost"] == batch.receipt.total_cost
        assert neighbour.increments == [increment | {"query_id": "q2"}]
        lifted = [r for r in neighbour.decisions if r["phase"] == "post_increment"]
        assert [r["verdict"] for r in lifted] == ["released", "released"]
        for query_id in trails:
            story = explain_decision(records, query_id, "t0")
            assert "verdict changed: blocked → released" in story
            assert "increment (applied)" in story

    def test_unaffected_neighbour_trail_has_no_increment(self, tmp_path):
        db, policies = self._setup()
        for row in list(db.table("m").scan()):
            if row.values[1] == "g2":
                db.set_confidence(row.tid, 0.9)
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            PCQEngine(db, policies, solver="greedy", audit=log).execute_many(
                [
                    QueryRequest("SELECT k FROM m WHERE grp = 'g1'", "p", 1.0),
                    QueryRequest("SELECT k FROM m WHERE grp = 'g2'", "p", 1.0),
                ],
                user="u",
            )
        improved, neighbour = build_trails(read_audit_log(path)).values()
        assert improved.increments and not neighbour.increments
        assert {r["phase"] for r in neighbour.decisions} == {"initial"}
