"""Unit tests for repro.storage.schema."""

import pytest

from repro.errors import AmbiguousColumnError, SchemaError, UnknownColumnError
from repro.storage import Column, Schema
from repro.storage.types import INTEGER, REAL, TEXT
from tests.error_codes import raises_code


@pytest.fixture
def proposal_schema() -> Schema:
    return Schema.of(
        ("Company", TEXT), ("Proposal", TEXT), ("Funding", REAL),
        table="Proposal",
    )


class TestColumn:
    def test_qualified_name(self):
        assert Column("c", TEXT, "t").qualified_name == "t.c"
        assert Column("c", TEXT).qualified_name == "c"

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", TEXT)

    def test_with_table(self):
        column = Column("c", TEXT, "t").with_table("u")
        assert column.table == "u"
        assert column.dtype is TEXT

    def test_renamed(self):
        column = Column("c", TEXT, "t").renamed("d")
        assert column.name == "d"
        assert column.table == "t"


class TestSchemaConstruction:
    def test_of_builds_ordered_columns(self, proposal_schema):
        assert proposal_schema.names == ("Company", "Proposal", "Funding")
        assert proposal_schema.types == (TEXT, TEXT, REAL)

    def test_duplicate_qualified_names_rejected(self):
        with raises_code(SchemaError, "DuplicateColumnError"):
            Schema.of(("a", TEXT), ("a", INTEGER))

    def test_same_name_different_qualifier_allowed(self):
        schema = Schema(
            [Column("Company", TEXT, "p"), Column("Company", TEXT, "c")]
        )
        assert len(schema) == 2

    def test_qualify_and_unqualified(self, proposal_schema):
        aliased = proposal_schema.qualify("p")
        assert all(column.table == "p" for column in aliased)
        assert all(column.table is None for column in aliased.unqualified())

    def test_concat(self, proposal_schema):
        other = Schema.of(("Income", REAL), table="CompanyInfo")
        joined = proposal_schema.concat(other)
        assert len(joined) == 4
        assert joined[3].name == "Income"

    def test_project(self, proposal_schema):
        projected = proposal_schema.project([2, 0])
        assert projected.names == ("Funding", "Company")


class TestSchemaLookup:
    def test_unqualified_lookup(self, proposal_schema):
        assert proposal_schema.index_of("Funding") == 2

    def test_case_insensitive(self, proposal_schema):
        assert proposal_schema.index_of("funding") == 2
        assert proposal_schema.index_of("Funding", "proposal") == 2

    def test_qualified_lookup(self, proposal_schema):
        assert proposal_schema.index_of("Company", "Proposal") == 0

    def test_unknown_column(self, proposal_schema):
        with pytest.raises(UnknownColumnError):
            proposal_schema.index_of("Missing")

    def test_unknown_qualifier(self, proposal_schema):
        with pytest.raises(UnknownColumnError):
            proposal_schema.index_of("Company", "Other")

    def test_ambiguous_lookup(self):
        schema = Schema(
            [Column("Company", TEXT, "p"), Column("Company", TEXT, "c")]
        )
        with pytest.raises(AmbiguousColumnError):
            schema.index_of("Company")
        # Qualified lookup disambiguates.
        assert schema.index_of("Company", "c") == 1

    def test_has_column(self, proposal_schema):
        assert proposal_schema.has_column("Company")
        assert not proposal_schema.has_column("Missing")

    def test_has_column_false_on_ambiguity(self):
        schema = Schema(
            [Column("x", TEXT, "a"), Column("x", TEXT, "b")]
        )
        assert not schema.has_column("x")

    def test_column_accessor(self, proposal_schema):
        assert proposal_schema.column("Funding").dtype is REAL


class TestSchemaEquality:
    def test_equal_schemas(self):
        a = Schema.of(("x", TEXT), ("y", REAL))
        b = Schema.of(("x", TEXT), ("y", REAL))
        assert a == b
        assert hash(a) == hash(b)

    def test_order_matters(self):
        a = Schema.of(("x", TEXT), ("y", REAL))
        b = Schema.of(("y", REAL), ("x", TEXT))
        assert a != b

    def test_iteration(self):
        schema = Schema.of(("x", TEXT), ("y", REAL))
        assert [column.name for column in schema] == ["x", "y"]
