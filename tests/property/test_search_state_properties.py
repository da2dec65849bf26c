"""`SearchState` under random walks, against recomputation from scratch.

Every solver explores through five moves — ``set_value`` (with an undo
token), ``commit`` (without), ``undo``, the judged ``walk_back`` and the
what-if ``gain`` probe — by tuple *slot*, under a last-in-first-out
discipline: a token is undone before any older one, and a commit or an
applied walk-back only happens when no token is outstanding.  Values come
from anywhere in a tuple's range and from the two tabulated lattice moves
the solvers make (``steps``, one δ up; ``previous_level``, one grid level
down).  After *every* step of a random walk that follows the discipline,
everything the state maintains incrementally must equal what
:func:`probability` — each formula compiled into a pool of its own, no
shared pool, no cache — and the tuples' own ``cost_to`` give for the
current assignment, keyed by ``TupleId`` the way the boundary sees it;
those confidences are within 1e-12 of possible-worlds enumeration.  A second state on the same
problem walks along: the tables the problem tabulates are shared, the
assignments are not.  A third, the twin, makes every move the first one
makes, except that it walks back the way the solvers used to — apply,
test, undo — and must agree with the first bit for bit, cost included.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.increment import IncrementProblem
from repro.increment.problem import SearchState, SolverStats
from repro.lineage import probability
from repro.workload import WorkloadSpec, generate_problem
from tests.oracle import close_to_worlds


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
    # The multi-query shape: two or three overlapping requirement groups,
    # and a δ that does not divide any tuple's range.
    indexes = list(range(len(problem.results)))
    members = [indexes[::2], indexes[1:], indexes[: len(indexes) // 2 + 1]]
    return IncrementProblem(
        problem.results,
        problem.tuples,
        problem.threshold,
        delta=draw(st.sampled_from([0.1, 0.07, 0.3])),
        requirement_groups=[
            (group, draw(st.integers(0, len(group))))
            for group in members[: draw(st.integers(2, 3))]
        ],
    )


steps = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "set",
                "set",
                "up",
                "down",
                "undo",
                "probe",
                "commit",
                "back",
                "other",
            ]
        ),
        st.integers(min_value=0, max_value=10_000),  # which tuple
        st.floats(min_value=0.0, max_value=1.0),  # how far towards its cap
    ),
    max_size=40,
)


def assignment_of(state: SearchState) -> dict:
    """The positional assignment as the ``TupleId``-keyed boundary sees it."""
    return dict(zip(state.problem.tids, state.values, strict=True))


def assert_matches_recomputation(state: SearchState) -> None:
    problem = state.problem
    assignment = assignment_of(state)
    confidences = [
        probability(result.formula, assignment) for result in problem.results
    ]
    for result, confidence in zip(problem.results, confidences):
        assert close_to_worlds(confidence, result.formula, assignment)
    flags = [problem.satisfied(confidence) for confidence in confidences]
    group_counts = [
        sum(flags[index] for index in members)
        for members, _needed in problem.requirement_groups
    ]
    unmet = [
        count < needed
        for count, (_members, needed) in zip(
            group_counts, problem.requirement_groups
        )
    ]
    assert state.confidences == confidences
    assert state.satisfied_flags == flags
    assert state.satisfied_count == sum(flags)
    assert state.group_counts == group_counts
    assert state.is_satisfied() == problem.requirements_met(flags)
    assert state.needed == [
        not flag and any(unmet[group] for group in groups)
        for flag, groups in zip(flags, problem.groups_by_result)
    ]
    assert state.cost == pytest.approx(problem.cost_of(assignment), abs=1e-9)
    assert state.snapshot_targets() == {
        tid: value
        for tid, value in assignment.items()
        if value > problem.tuples[tid].initial + 1e-9
    }


def assert_same_state(state: SearchState, twin: SearchState) -> None:
    assert state.values == twin.values
    assert state.confidences == twin.confidences
    assert state.satisfied_flags == twin.satisfied_flags
    assert state.group_counts == twin.group_counts
    assert state.unmet_groups == twin.unmet_groups
    assert state.needed == twin.needed
    assert state.cost == twin.cost  # bit for bit, not approximately


def expected_gain(state: SearchState, slot: int, every: bool) -> float:
    """gain* of *slot*'s δ-step, from a pool per formula."""
    problem = state.problem
    step = problem.steps[slot][state.values[slot]]
    if step is None:
        return -math.inf
    target, step_cost = step
    patched = {**assignment_of(state), problem.tids[slot]: target}
    delta = 0.0
    for index in problem.results_by_slot[slot]:
        if every or state.needed[index]:
            formula = problem.results[index].formula
            delta += probability(formula, patched) - state.confidences[index]
    if delta <= 1e-9:
        return 0.0
    if step_cost <= 1e-9:
        return math.inf
    return delta / step_cost


@settings(max_examples=150, deadline=None)
@given(problems(), steps)
def test_random_walk_matches_recomputation_after_every_step(problem, walk):
    state = SearchState(problem)
    other = SearchState(problem)  # shares the problem's tables, nothing else
    twin = SearchState(problem)  # walks back by apply, test, undo
    assert_matches_recomputation(state)
    outstanding = []  # (slot, old value, token, twin token), most recent last
    for move, pick, fraction in walk:
        slot = pick % len(problem.tids)
        tid = problem.tids[slot]
        base = problem.tuples[tid]
        current = state.values[slot]
        value = base.initial + fraction * (base.maximum - base.initial)
        if move == "up":
            step = problem.steps[slot][current]
            if step is None:
                assert current >= base.maximum - 1e-9
                continue
            value, step_cost = step
            assert value == min(current + problem.delta, base.maximum)
            assert step_cost == base.cost_to(value) - base.cost_to(current)
        elif move in ("down", "back"):
            value = problem.previous_level(slot, current)
            levels = base.levels(problem.delta)
            assert value == max(
                [level for level in levels if level < current - 1e-9],
                default=levels[0],
            )
        if move in ("set", "up", "down"):
            outstanding.append(
                (
                    slot,
                    current,
                    state.set_value(slot, value),
                    twin.set_value(slot, value),
                )
            )
        elif move == "undo":
            if outstanding:
                slot, old, token, twin_token = outstanding.pop()
                state.undo(slot, old, token)
                twin.undo(slot, old, twin_token)
        elif move == "commit":
            outstanding.clear()  # earlier moves are kept for good
            state.commit(slot, value)
            twin.commit(slot, value)
        elif move == "back":
            outstanding.clear()  # an applied walk-back is kept for good
            applied = state.walk_back(slot, value)
            token = twin.set_value(slot, value)
            assert applied == twin.is_satisfied()
            if not applied:
                twin.undo(slot, current, token)
        elif move == "other":
            other.commit(slot, value)
            assert_matches_recomputation(other)
        else:  # a gain probe, over every result or over the needed ones
            every = fraction < 0.5
            expected = expected_gain(state, slot, every)
            before = (list(state.confidences), list(state.values), state.cost)
            stats = SolverStats()
            assert state.gain(slot, every, stats) == expected
            assert stats.gain_evaluations == (expected != -math.inf)
            assert (state.confidences, state.values, state.cost) == before
        assert_matches_recomputation(state)
        assert_same_state(state, twin)
    while outstanding:
        slot, old, token, twin_token = outstanding.pop()
        state.undo(slot, old, token)
        twin.undo(slot, old, twin_token)
        assert_matches_recomputation(state)
        assert_same_state(state, twin)
