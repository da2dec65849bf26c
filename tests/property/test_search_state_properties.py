"""`SearchState` under random walks, against recomputation from scratch.

Every solver explores through four moves — ``set_value`` (with an undo
token), ``commit`` (without), ``undo`` and the what-if ``probe`` — under a
last-in-first-out discipline: a token is undone before any older one, and
a commit only happens when no token is outstanding.  After *every* step of
a random walk that follows the discipline, everything the state maintains
incrementally must equal what :func:`probability` — the reference
interpreter, no circuit, no cache — gives for the current assignment.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.increment import IncrementProblem
from repro.increment.problem import SearchState
from repro.lineage import probability
from repro.workload import WorkloadSpec, generate_problem


@st.composite
def problems(draw) -> IncrementProblem:
    spec = WorkloadSpec(
        data_size=draw(st.integers(min_value=4, max_value=30)),
        tuples_per_result=draw(st.integers(min_value=2, max_value=4)),
        threshold=0.5,
        theta=0.5,
        or_bias=draw(st.sampled_from([0.3, 0.5, 0.8])),
    )
    problem = generate_problem(
        spec, seed=draw(st.integers(min_value=0, max_value=10_000))
    ).problem
    if len(problem.results) < 2 or not draw(st.booleans()):
        return problem
    # The multi-query shape: two overlapping requirement groups.
    indexes = list(range(len(problem.results)))
    first, second = indexes[::2], indexes[1:]
    return IncrementProblem(
        problem.results,
        problem.tuples,
        problem.threshold,
        delta=problem.delta,
        requirement_groups=[
            (first, draw(st.integers(0, len(first)))),
            (second, draw(st.integers(0, len(second)))),
        ],
    )


steps = st.lists(
    st.tuples(
        st.sampled_from(["set", "set", "undo", "probe", "commit"]),
        st.integers(min_value=0, max_value=10_000),  # which tuple
        st.floats(min_value=0.0, max_value=1.0),  # how far towards its cap
    ),
    max_size=40,
)


def assert_matches_recomputation(state: SearchState) -> None:
    problem = state.problem
    confidences = [
        probability(result.formula, state.assignment)
        for result in problem.results
    ]
    flags = [problem.satisfied(confidence) for confidence in confidences]
    group_counts = [
        sum(flags[index] for index in members)
        for members, _needed in problem.requirement_groups
    ]
    assert state.confidences == confidences
    assert state.satisfied_flags == flags
    assert state.satisfied_count == sum(flags)
    assert state.group_counts == group_counts
    assert state.is_satisfied() == problem.requirements_met(flags)
    assert state.cost == pytest.approx(
        problem.cost_of(state.assignment), abs=1e-9
    )


@settings(max_examples=150, deadline=None)
@given(problems(), steps)
def test_random_walk_matches_recomputation_after_every_step(problem, walk):
    state = SearchState(problem)
    assert_matches_recomputation(state)
    tids = list(problem.tuples)
    outstanding = []  # (tid, old value, token), most recent last
    for move, pick, fraction in walk:
        tid = tids[pick % len(tids)]
        base = problem.tuples[tid]
        value = base.initial + fraction * (base.maximum - base.initial)
        if move == "set":
            old = state.value_of(tid)
            outstanding.append((tid, old, state.set_value(tid, value)))
        elif move == "undo":
            if outstanding:
                state.undo(*outstanding.pop())
        elif move == "commit":
            outstanding.clear()  # earlier moves are kept for good
            state.commit(tid, value)
        else:
            indexes = problem.results_by_tuple[tid]
            patched = {**state.assignment, tid: value}
            assert state.probe(tid, value, indexes) == [
                probability(problem.results[index].formula, patched)
                for index in indexes
            ]
        assert_matches_recomputation(state)
    while outstanding:
        state.undo(*outstanding.pop())
        assert_matches_recomputation(state)
