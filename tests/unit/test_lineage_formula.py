"""Unit tests for repro.lineage.formula."""

from repro.errors import ReproError
from repro.lineage import (
    BOTTOM,
    TOP,
    And,
    Not,
    Or,
    Var,
    lineage_and,
    lineage_not,
    lineage_or,
    restrict,
    var,
)
from repro.storage import TupleId
from tests.error_codes import raises_code

A = TupleId("t", 0)
B = TupleId("t", 1)
C = TupleId("t", 2)


class TestSmartConstructors:
    def test_empty_and_is_top(self):
        assert lineage_and() is TOP

    def test_empty_or_is_bottom(self):
        assert lineage_or() is BOTTOM

    def test_single_child_unwrapped(self):
        assert lineage_and(var(A)) == var(A)
        assert lineage_or(var(A)) == var(A)

    def test_bottom_annihilates_and(self):
        assert lineage_and(var(A), BOTTOM) is BOTTOM

    def test_top_annihilates_or(self):
        assert lineage_or(var(A), TOP) is TOP

    def test_neutral_elements_dropped(self):
        assert lineage_and(var(A), TOP) == var(A)
        assert lineage_or(var(A), BOTTOM) == var(A)

    def test_flattening(self):
        nested = lineage_and(lineage_and(var(A), var(B)), var(C))
        assert isinstance(nested, And)
        assert len(nested.children) == 3

    def test_deduplication(self):
        assert lineage_and(var(A), var(A)) == var(A)
        formula = lineage_or(var(A), var(B), var(A))
        assert isinstance(formula, Or)
        assert len(formula.children) == 2

    def test_double_negation(self):
        assert lineage_not(lineage_not(var(A))) == var(A)

    def test_negated_constants(self):
        assert lineage_not(TOP) is BOTTOM
        assert lineage_not(BOTTOM) is TOP

    def test_operator_sugar(self):
        formula = (var(A) & var(B)) | ~var(C)
        assert isinstance(formula, Or)
        assert formula.variables == {A, B, C}


class TestStructuralEquality:
    def test_equal_formulas_equal_hash(self):
        left = lineage_and(var(A), var(B))
        right = lineage_and(var(A), var(B))
        assert left == right
        assert hash(left) == hash(right)

    def test_and_or_differ(self):
        assert lineage_and(var(A), var(B)) != lineage_or(var(A), var(B))

    def test_variables_collected(self):
        formula = lineage_and(lineage_or(var(A), var(B)), var(C))
        assert formula.variables == frozenset({A, B, C})


class TestBooleanEvaluation:
    def test_truth_table_and(self):
        formula = lineage_and(var(A), var(B))
        assert formula.evaluate({A: True, B: True})
        assert not formula.evaluate({A: True, B: False})

    def test_truth_table_or(self):
        formula = lineage_or(var(A), var(B))
        assert formula.evaluate({A: False, B: True})
        assert not formula.evaluate({A: False, B: False})

    def test_not(self):
        assert Not(var(A)).evaluate({A: False})

    def test_missing_variable_raises(self):
        with raises_code(ReproError, "LineageError"):
            var(A).evaluate({})

    def test_constants(self):
        assert TOP.evaluate({})
        assert not BOTTOM.evaluate({})


class TestRestrict:
    def test_restrict_var(self):
        assert restrict(var(A), A, True) is TOP
        assert restrict(var(A), A, False) is BOTTOM

    def test_restrict_untouched_formula_identity(self):
        formula = lineage_and(var(A), var(B))
        assert restrict(formula, C, True) is formula

    def test_restrict_simplifies(self):
        formula = lineage_and(var(A), var(B))
        assert restrict(formula, A, True) == var(B)
        assert restrict(formula, A, False) is BOTTOM

    def test_restrict_or(self):
        formula = lineage_or(var(A), var(B))
        assert restrict(formula, A, True) is TOP
        assert restrict(formula, A, False) == var(B)

    def test_restrict_through_not(self):
        formula = lineage_not(lineage_and(var(A), var(B)))
        assert restrict(formula, A, False) is TOP

    def test_restrict_paper_formula(self):
        # (A OR B) AND C restricted on C=False is BOTTOM.
        formula = lineage_and(lineage_or(var(A), var(B)), var(C))
        assert restrict(formula, C, False) is BOTTOM
        assert restrict(formula, C, True) == lineage_or(var(A), var(B))
