"""Integration tests: the instrumented pipeline explains itself.

Runs the paper's running example (§3.1) under a capturing tracer and a
fresh metrics registry and checks that stage spans, the ``profile=True``
breakdown, and the per-heuristic prune attribution all line up with what
the engine actually did.
"""

import pytest

from repro import PCQEngine, QueryRequest, QueryStatus
from repro.increment import HeuristicOptions, IncrementProblem, solve_heuristic
from repro.lineage import lineage_and, lineage_or, var
from repro.obs import (
    MetricsRegistry,
    get_metrics,
    get_tracer,
    set_metrics,
)
from repro.workload import WorkloadSpec, generate_problem


@pytest.fixture
def fresh_metrics():
    """Isolate each test's counters from the process-wide registry."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _running_example_problem(running_example) -> IncrementProblem:
    t02 = running_example.proposal_ids["02"]
    t03 = running_example.proposal_ids["03"]
    t13 = running_example.company_ids["13"]
    lineage = lineage_and(lineage_or(var(t02), var(t03)), var(t13))
    return IncrementProblem.from_results(
        [lineage], running_example.db, threshold=0.06, required_count=1
    )


class TestStageSpans:
    def test_improvement_flow_emits_every_stage(
        self, running_example, fresh_metrics
    ):
        engine = PCQEngine(
            running_example.db, running_example.policies, solver="heuristic"
        )
        with get_tracer().capture() as sink:
            result = engine.execute(
                QueryRequest(running_example.QUERY, "investment", 1.0),
                user="bob",
            )
        assert result.status is QueryStatus.IMPROVED

        (root,) = sink.find("pcqe.execute")
        assert root.parent_id is None
        assert root.attributes["user"] == "bob"
        assert root.attributes["status"] == "improved"

        # All five pipeline stages appear as direct children of the root.
        stages = [
            span for span in sink.spans if span.parent_id == root.span_id
        ]
        stage_names = [span.name for span in stages]
        for expected in (
            "pcqe.query_evaluation",
            "pcqe.policy_enforcement",
            "pcqe.strategy_finding",
            "pcqe.improvement",
            "pcqe.reevaluation",
        ):
            assert expected in stage_names

        # Confidence computation + filtering nest under policy enforcement.
        enforcement_ids = {
            span.span_id
            for span in stages
            if span.name in ("pcqe.policy_enforcement", "pcqe.reevaluation")
        }
        confidence_spans = sink.find("policy.confidence")
        filter_spans = sink.find("policy.filter")
        assert confidence_spans and filter_spans
        for span in confidence_spans + filter_spans:
            assert span.parent_id in enforcement_ids

        # The columnar engine traces one span per operator, nested under
        # query evaluation; the running example's query joins two scans.
        (evaluation,) = sink.find("pcqe.query_evaluation")
        executor_spans = [
            span for span in sink.spans if span.name.startswith("columnar.")
        ]
        assert len(sink.find("columnar.scan")) == 2
        roots_of_algebra = {
            span.parent_id
            for span in executor_spans
            if not any(
                other.span_id == span.parent_id for other in executor_spans
            )
        }
        assert roots_of_algebra == {evaluation.span_id}

        # The solver span sits under strategy finding — one hop-0 attempt
        # span down, as every solve runs through the chain — with its stats.
        (strategy,) = sink.find("pcqe.strategy_finding")
        (attempt,) = sink.find("pcqe.solver_attempt")
        (solver_span,) = sink.find("solver.heuristic")
        assert attempt.parent_id == strategy.span_id
        assert solver_span.parent_id == attempt.span_id
        assert solver_span.attributes["nodes_explored"] > 0

    def test_satisfied_flow_skips_solver_stages(
        self, running_example, fresh_metrics
    ):
        engine = PCQEngine(running_example.db, running_example.policies)
        with get_tracer().capture() as sink:
            result = engine.execute(
                QueryRequest(running_example.QUERY, "analysis", 0.0),
                user="alice",
            )
        assert result.status is QueryStatus.SATISFIED
        assert sink.find("pcqe.strategy_finding") == []
        assert sink.find("pcqe.improvement") == []
        (root,) = sink.find("pcqe.execute")
        assert root.attributes["status"] == "satisfied"

    def test_executor_metrics_count_operator_rows(
        self, running_example, fresh_metrics
    ):
        from repro.sql import run_sql

        result = run_sql(running_example.db, running_example.QUERY)
        snapshot = fresh_metrics.snapshot()
        assert snapshot["executor.columnar.scan.calls"] == 2
        # The scans surface all Proposal + CompanyInfo rows.
        assert snapshot["executor.columnar.scan.rows_emitted"] >= len(result)
        assert snapshot["executor.columnar.scan.seconds"]["count"] == 2


class TestProfileReport:
    def test_profile_totals_cover_the_stages(
        self, running_example, fresh_metrics
    ):
        engine = PCQEngine(
            running_example.db, running_example.policies, solver="greedy"
        )
        result = engine.execute(
            QueryRequest(
                running_example.QUERY, "investment", 1.0, profile=True
            ),
            user="bob",
        )
        assert result.status is QueryStatus.IMPROVED
        report = result.profile
        assert report is not None
        for stage in (
            "pcqe.query_evaluation",
            "pcqe.policy_enforcement",
            "pcqe.strategy_finding",
            "pcqe.improvement",
            "pcqe.reevaluation",
        ):
            assert stage in report.stages
            assert report.stages[stage] > 0
        # Stage durations sum to (at most) the root total, and account for
        # the bulk of it — the breakdown is a real decomposition.
        total_staged = sum(report.stages.values())
        assert total_staged <= report.total_seconds + 1e-9
        assert report.unattributed_seconds < report.total_seconds
        # Metrics moved during the run are attributed to it.
        assert report.metrics["policy.rows_evaluated"] > 0
        assert report.metrics["solver.greedy.runs"] == 1
        assert "pcqe.execute" in report.format()

    def test_profile_off_attaches_nothing(self, running_example, fresh_metrics):
        engine = PCQEngine(running_example.db, running_example.policies)
        result = engine.execute(
            QueryRequest(running_example.QUERY, "analysis", 0.0), user="alice"
        )
        assert result.profile is None


class TestHeuristicAttribution:
    """Each of H1–H4 is individually visible in the metrics registry."""

    FIELDS = {
        "h1": "h1_applied",
        "h2": "nodes_pruned_h2",
        "h3": "nodes_pruned_h3",
        "h4": "nodes_pruned_h4",
    }

    def test_running_example_attributes_prunes_per_heuristic(
        self, running_example, fresh_metrics
    ):
        problem = _running_example_problem(running_example)
        for heuristic, field in self.FIELDS.items():
            registry = MetricsRegistry()
            set_metrics(registry)
            plan = solve_heuristic(problem, HeuristicOptions.only(heuristic))
            snapshot = registry.snapshot()
            stats_value = getattr(plan.stats, field)
            metric = snapshot.get(f"solver.heuristic.{field}", 0)
            # The metric equals the stats counter — the façade and the
            # registry never disagree.
            assert metric == stats_value
            # Only the enabled heuristic's counters may move.
            for other in set(self.FIELDS.values()) - {field}:
                assert snapshot.get(f"solver.heuristic.{other}", 0) == 0
            assert snapshot["solver.heuristic.runs"] == 1

    def test_each_heuristic_fires_on_the_fig11a_workload(self, fresh_metrics):
        spec = WorkloadSpec(
            data_size=10,
            tuples_per_result=5,
            theta=0.6,
            threshold=0.5,
            delta=0.15,
            or_bias=0.7,
        )
        problem = generate_problem(spec, seed=2).problem
        for heuristic, field in self.FIELDS.items():
            registry = MetricsRegistry()
            set_metrics(registry)
            plan = solve_heuristic(problem, HeuristicOptions.only(heuristic))
            value = registry.snapshot()[f"solver.heuristic.{field}"]
            assert value > 0
            assert value == getattr(plan.stats, field)


class TestSolverMetricsParity:
    """All four solvers publish their SolverStats through the registry."""

    def test_greedy_gain_evaluations(self, running_example, fresh_metrics):
        from repro.increment import solve_greedy

        problem = _running_example_problem(running_example)
        plan = solve_greedy(problem)
        snapshot = get_metrics().snapshot()
        assert (
            snapshot["solver.greedy.gain_evaluations"]
            == plan.stats.gain_evaluations
            > 0
        )
        assert snapshot["solver.greedy.elapsed_seconds"]["count"] == 1

    def test_dnc_partition_sizes(self, fresh_metrics):
        from repro.increment import solve_dnc

        spec = WorkloadSpec(data_size=60, tuples_per_result=3)
        problem = generate_problem(spec, seed=5).problem
        plan = solve_dnc(problem)
        snapshot = get_metrics().snapshot()
        assert snapshot["solver.dnc.groups"] == plan.stats.groups > 0
        histogram = snapshot["solver.dnc.partition_size"]
        assert histogram["count"] == plan.stats.groups

    def test_local_search_swap_moves(self, fresh_metrics):
        from repro.increment import LocalSearchOptions, solve_local_search

        spec = WorkloadSpec(data_size=40, tuples_per_result=3)
        problem = generate_problem(spec, seed=11).problem
        plan = solve_local_search(problem, LocalSearchOptions(restarts=2))
        snapshot = get_metrics().snapshot()
        assert snapshot["solver.local-search.runs"] == 1
        assert (
            snapshot.get("solver.local-search.swap_moves", 0)
            == plan.stats.swap_moves
        )
