"""Unit tests for the synthetic workload generator and scenarios."""

import pytest

from repro.errors import ReproError
from repro.workload import (
    WorkloadSpec,
    generate_problem,
    healthcare_database,
    venture_capital_database,
)
from tests.error_codes import raises_code


class TestWorkloadSpec:
    def test_defaults_match_table4(self):
        spec = WorkloadSpec()
        assert spec.data_size == 10_000
        assert spec.tuples_per_result == 5
        assert spec.delta == 0.1
        assert spec.theta == 0.5
        assert spec.threshold == 0.6

    def test_result_count_derived(self):
        assert WorkloadSpec(data_size=100, tuples_per_result=5).result_count == 20

    def test_validation(self):
        with raises_code(ReproError, "WorkloadError"):
            WorkloadSpec(data_size=0)
        with raises_code(ReproError, "WorkloadError"):
            WorkloadSpec(tuples_per_result=0)
        with raises_code(ReproError, "WorkloadError"):
            WorkloadSpec(data_size=3, tuples_per_result=5)
        with raises_code(ReproError, "WorkloadError"):
            WorkloadSpec(theta=0.0)
        with raises_code(ReproError, "WorkloadError"):
            WorkloadSpec(threshold=1.5)
        with raises_code(ReproError, "WorkloadError"):
            WorkloadSpec(or_bias=2.0)
        with raises_code(ReproError, "WorkloadError"):
            WorkloadSpec(locality=-1.0)


class TestGeneration:
    def test_deterministic_for_seed(self):
        spec = WorkloadSpec(data_size=50, tuples_per_result=5)
        first = generate_problem(spec, seed=5)
        second = generate_problem(spec, seed=5)
        assert first.problem.required_count == second.problem.required_count
        first_assignment = first.problem.initial_assignment()
        second_assignment = second.problem.initial_assignment()
        assert first_assignment == second_assignment

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(data_size=50, tuples_per_result=5)
        a = generate_problem(spec, seed=1).problem.initial_assignment()
        b = generate_problem(spec, seed=2).problem.initial_assignment()
        assert a != b

    def test_confidences_around_center(self):
        spec = WorkloadSpec(
            data_size=100, tuples_per_result=5,
            confidence_center=0.1, confidence_spread=0.05,
        )
        problem = generate_problem(spec, seed=0).problem
        for state in problem.tuples.values():
            assert 0.05 <= state.initial <= 0.15

    def test_result_arity(self):
        spec = WorkloadSpec(data_size=100, tuples_per_result=5)
        problem = generate_problem(spec, seed=0).problem
        for result in problem.results:
            assert result.arity() <= 5

    def test_requirement_clamped_to_achievable(self):
        workload = generate_problem(
            WorkloadSpec(data_size=30, tuples_per_result=5, or_bias=0.0),
            seed=0,
        )
        assert workload.problem.required_count <= workload.achievable_count
        assert workload.clamped == (
            workload.requested_count > workload.achievable_count
        )

    def test_problem_is_solvable(self):
        from repro.increment import solve_greedy

        workload = generate_problem(
            WorkloadSpec(data_size=60, tuples_per_result=4), seed=8
        )
        plan = solve_greedy(workload.problem)
        assert len(plan.satisfied_results) >= workload.problem.required_count

    def test_locality_zero_samples_globally(self):
        spec = WorkloadSpec(data_size=100, tuples_per_result=5, locality=0.0)
        problem = generate_problem(spec, seed=0).problem
        assert len(problem.tuples) > 5


class TestScenarios:
    def test_venture_capital_reproduces_paper_confidence(self):
        from repro.sql import run_sql

        scenario = venture_capital_database()
        result = run_sql(scenario.db, scenario.QUERY)
        confidences = {
            row.values[0]: confidence
            for row, confidence in result.with_confidences(scenario.db)
        }
        assert confidences["BlueRiver"] == pytest.approx(0.058)

    def test_venture_capital_policies(self):
        scenario = venture_capital_database()
        assert scenario.policies.threshold_for("alice", "analysis") == 0.05
        assert scenario.policies.threshold_for("bob", "investment") == 0.06

    def test_venture_capital_cost_asymmetry(self):
        scenario = venture_capital_database()
        t02 = scenario.db.resolve(scenario.proposal_ids["02"])
        t03 = scenario.db.resolve(scenario.proposal_ids["03"])
        cost02 = t02.cost_model.increment_cost(0.3, 0.4)
        cost03 = t03.cost_model.increment_cost(0.4, 0.5)
        assert cost02 == pytest.approx(100.0)
        assert cost03 == pytest.approx(10.0)

    def test_healthcare_database_shape(self):
        scenario = healthcare_database(patients=50, seed=1)
        assert len(scenario.db.table("Patients")) == 50
        assert len(scenario.db.table("Treatments")) >= 50
        assert scenario.policies.threshold_for("omar", "treatment-evaluation") == 0.75

    def test_healthcare_tier_confidences(self):
        scenario = healthcare_database(patients=100, seed=2)
        by_tier = {}
        for row in scenario.db.table("Patients").scan():
            by_tier.setdefault(row.values[3], []).append(row.confidence)
        if "registry" in by_tier and "chart" in by_tier:
            mean = lambda xs: sum(xs) / len(xs)
            assert mean(by_tier["chart"]) > mean(by_tier["registry"])

    def test_healthcare_deterministic(self):
        a = healthcare_database(patients=20, seed=3)
        b = healthcare_database(patients=20, seed=3)
        assert a.db.table("Patients").rows() == b.db.table("Patients").rows()
