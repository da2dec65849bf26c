"""Unit tests for the policy engine (model, store, enforcement)."""

import pytest

from repro.algebra.rows import AnnotatedTuple, ResultSet
from repro.errors import ReproError
from repro.lineage import var
from repro.policy import (
    ConfidencePolicy,
    FilterOutcome,
    PolicyEvaluator,
    PolicyStore,
)
from repro.storage import Schema, TEXT, TupleId
from tests.error_codes import raises_code


@pytest.fixture
def store() -> PolicyStore:
    s = PolicyStore()
    s.add_role("Secretary")
    s.add_role("Manager", inherits=["Secretary"])
    s.add_purpose("analysis")
    s.add_purpose("decision-making")
    s.add_purpose("investment", parent="decision-making")
    s.add_user("alice", roles=["Secretary"])
    s.add_user("bob", roles=["Manager"])
    s.add_policy("Secretary", "analysis", 0.05)
    s.add_policy("Manager", "investment", 0.06)
    return s


class TestConfidencePolicy:
    def test_admits_strictly_above(self):
        policy = ConfidencePolicy("r", "p", 0.5)
        assert policy.admits(0.51)
        assert not policy.admits(0.5)

    def test_threshold_validated(self):
        with raises_code(ReproError, "PolicyError"):
            ConfidencePolicy("r", "p", 1.5)

    def test_empty_fields_rejected(self):
        with raises_code(ReproError, "PolicyError"):
            ConfidencePolicy("", "p", 0.5)
        with raises_code(ReproError, "PolicyError"):
            ConfidencePolicy("r", "", 0.5)

    def test_display(self):
        assert str(ConfidencePolicy("Manager", "investment", 0.06)) == (
            "<Manager, investment, 0.06>"
        )


class TestRoleRegistry:
    def test_role_closure_includes_juniors(self, store):
        assert store.role_closure("Manager") == {"Manager", "Secretary"}
        assert store.role_closure("Secretary") == {"Secretary"}

    def test_duplicate_role_rejected(self, store):
        with raises_code(ReproError, "PolicyError"):
            store.add_role("Manager")

    def test_inherit_unknown_role_rejected(self, store):
        with raises_code(ReproError, "UnknownRoleError"):
            store.add_role("CEO", inherits=["Missing"])

    def test_unknown_role_lookup(self, store):
        with raises_code(ReproError, "UnknownRoleError"):
            store.role("Missing")

    def test_deep_inheritance(self, store):
        store.add_role("VP", inherits=["Manager"])
        assert store.role_closure("VP") == {"VP", "Manager", "Secretary"}


class TestPurposeTree:
    def test_ancestry(self, store):
        assert store.purpose_ancestry("investment") == [
            "investment",
            "decision-making",
        ]

    def test_unknown_parent_rejected(self, store):
        with raises_code(ReproError, "UnknownPurposeError"):
            store.add_purpose("x", parent="missing")

    def test_duplicate_purpose_rejected(self, store):
        with raises_code(ReproError, "PolicyError"):
            store.add_purpose("analysis")


class TestUsers:
    def test_grant_and_revoke(self, store):
        store.add_user("carol")
        store.grant_role("carol", "Secretary")
        assert "Secretary" in store.user("carol").roles
        store.revoke_role("carol", "Secretary")
        assert "Secretary" not in store.user("carol").roles

    def test_unknown_user(self, store):
        with raises_code(ReproError, "UnknownUserError"):
            store.user("nobody")

    def test_grant_unknown_role(self, store):
        store.add_user("carol")
        with raises_code(ReproError, "UnknownRoleError"):
            store.grant_role("carol", "Missing")


class TestPolicySelection:
    def test_direct_policy(self, store):
        assert store.threshold_for("alice", "analysis") == 0.05

    def test_manager_inherits_secretary_policy(self, store):
        # Manager's closure includes Secretary, so the analysis policy applies.
        assert store.threshold_for("bob", "analysis") == 0.05

    def test_purpose_parent_policy_covers_child(self, store):
        store.add_policy("Secretary", "decision-making", 0.5)
        assert store.threshold_for("alice", "investment") == 0.5

    def test_strictest_combination(self, store):
        store.add_policy("Secretary", "investment", 0.9)
        # bob holds Manager (0.06 on investment) and inherits Secretary (0.9).
        assert store.threshold_for("bob", "investment") == 0.9

    def test_most_specific_combination(self):
        s = PolicyStore(combination="most_specific")
        s.add_role("R")
        s.add_purpose("care")
        s.add_purpose("surgery", parent="care")
        s.add_user("u", roles=["R"])
        s.add_policy("R", "care", 0.9)
        s.add_policy("R", "surgery", 0.4)
        # The nearer purpose wins even though it is laxer.
        assert s.threshold_for("u", "surgery") == 0.4

    def test_deny_by_default(self, store):
        with raises_code(ReproError, "NoApplicablePolicyError"):
            store.threshold_for("alice", "investment")

    def test_default_threshold(self):
        s = PolicyStore(default_threshold=0.2)
        s.add_role("R")
        s.add_purpose("p")
        s.add_user("u", roles=["R"])
        assert s.threshold_for("u", "p") == 0.2

    def test_role_as_subject(self, store):
        assert (
            store.threshold_for("Manager", "investment", subject_is_user=False)
            == 0.06
        )

    def test_select_policy_returns_matching(self, store):
        policy = store.select_policy("bob", "investment")
        assert policy.role == "Manager"
        assert policy.threshold == 0.06

    def test_select_policy_synthesizes_default(self):
        s = PolicyStore(default_threshold=0.3)
        s.add_role("R")
        s.add_purpose("p")
        s.add_user("u", roles=["R"])
        assert s.select_policy("u", "p").role == "*"

    def test_invalid_combination_mode(self):
        with raises_code(ReproError, "PolicyError"):
            PolicyStore(combination="nonsense")


def _result_set(confidence_by_value):
    rows = []
    probabilities = {}
    for index, value in enumerate(confidence_by_value):
        tid = TupleId("t", index)
        rows.append(AnnotatedTuple((f"row{index}",), var(tid)))
        probabilities[tid] = value
    schema = Schema.of(("label", TEXT))
    return ResultSet(schema, rows), probabilities


class TestEnforcement:
    def test_partition(self, store):
        result, probabilities = _result_set([0.02, 0.055, 0.5])
        evaluator = PolicyEvaluator(store)
        outcome = evaluator.evaluate(result, probabilities, "alice", "analysis")
        assert outcome.threshold == 0.05
        assert len(outcome.released) == 2
        assert len(outcome.withheld) == 1

    def test_strictly_above(self, store):
        result, probabilities = _result_set([0.05])
        outcome = PolicyEvaluator.apply_threshold(result, probabilities, 0.05)
        assert len(outcome.released) == 0

    def test_fractions_and_shortfall(self, store):
        result, probabilities = _result_set([0.9, 0.9, 0.01, 0.01])
        outcome = PolicyEvaluator.apply_threshold(result, probabilities, 0.5)
        assert outcome.released_fraction == 0.5
        assert outcome.satisfies(0.5)
        assert not outcome.satisfies(0.75)
        assert outcome.shortfall(0.75) == 1
        assert outcome.shortfall(1.0) == 2
        assert outcome.shortfall(0.25) == 0

    def test_empty_result_is_satisfied(self, store):
        result, probabilities = _result_set([])
        outcome = PolicyEvaluator.apply_threshold(result, probabilities, 0.5)
        assert outcome.released_fraction == 1.0
        assert outcome.satisfies(1.0)

    def test_invalid_threshold(self, store):
        result, probabilities = _result_set([0.5])
        with raises_code(ReproError, "PolicyError"):
            PolicyEvaluator.apply_threshold(result, probabilities, 1.5)
