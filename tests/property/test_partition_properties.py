"""Property-based tests for the D&C partitioner and workload generator."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.increment import PartitionOptions, partition_results
from repro.workload import WorkloadSpec, generate_problem


def problems():
    @st.composite
    def build(draw):
        spec = WorkloadSpec(
            data_size=draw(st.integers(min_value=5, max_value=80)),
            tuples_per_result=draw(st.integers(min_value=2, max_value=5)),
            threshold=0.5,
            locality=draw(st.sampled_from([0.0, 2.0, 5.0])),
        )
        seed = draw(st.integers(min_value=0, max_value=5000))
        return generate_problem(spec, seed=seed).problem

    return build()


@settings(max_examples=60, deadline=None)
@given(problems(), st.floats(min_value=0.5, max_value=5.0))
def test_partition_is_a_partition(problem, gamma):
    groups = partition_results(problem, PartitionOptions(gamma=gamma))
    flattened = sorted(index for group in groups for index in group)
    assert flattened == list(range(len(problem.results)))


@settings(max_examples=40, deadline=None)
@given(problems())
def test_higher_gamma_never_merges_more(problem):
    coarse = partition_results(problem, PartitionOptions(gamma=1.0))
    fine = partition_results(problem, PartitionOptions(gamma=3.0))
    assert len(fine) >= len(coarse)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_gamma_one_groups_are_connected_components(problem):
    """At γ=1 every pair of results sharing a tuple lands together."""
    groups = partition_results(problem, PartitionOptions(gamma=1.0))
    group_of = {}
    for group_id, group in enumerate(groups):
        for index in group:
            group_of[index] = group_id
    for indexes in problem.results_by_slot:
        first = indexes[0] if indexes else None
        for index in indexes[1:]:
            assert group_of[index] == group_of[first]


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(min_value=3, max_value=30))
def test_group_tuple_cap_respected(problem, cap):
    groups = partition_results(
        problem, PartitionOptions(gamma=1.0, max_group_tuples=cap)
    )
    for group in groups:
        if len(group) == 1:
            continue  # singleton groups may exceed the cap on their own
        tuples = set()
        for index in group:
            tuples |= set(problem.results[index].variables)
        assert len(tuples) <= cap


@settings(max_examples=40, deadline=None)
@given(problems())
def test_generated_requirement_is_always_achievable(problem):
    flags = [
        problem.satisfied(result.evaluate(problem.maximal_assignment()))
        for result in problem.results
    ]
    assert problem.requirements_met(flags)
