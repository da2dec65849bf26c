"""Unit tests for the exception contract.

Applications catch :class:`~repro.errors.ReproError` to handle anything the
library raises; these tests pin that contract, the classes handlers catch,
and the ``code`` that names a finer condition.
"""

import inspect

import pytest

from repro import errors
from tests.error_codes import raises_code


def all_error_classes():
    return [
        obj
        for _name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, Exception)
    ]


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for cls in all_error_classes():
            assert issubclass(cls, errors.ReproError), cls.__name__

    def test_all_exports_are_defined(self):
        for name in errors.__all__:
            assert hasattr(errors, name), name

    def test_every_public_error_is_exported(self):
        exported = set(errors.__all__)
        for cls in all_error_classes():
            assert cls.__name__ in exported, cls.__name__

    def test_subsystem_groupings(self):
        assert issubclass(errors.UnknownColumnError, errors.SchemaError)
        assert issubclass(errors.AmbiguousColumnError, errors.SchemaError)
        assert issubclass(errors.TypeMismatchError, errors.SchemaError)
        assert issubclass(errors.CorruptLogError, errors.DurabilityError)
        assert issubclass(
            errors.InfeasibleIncrementError, errors.IncrementError
        )
        assert issubclass(errors.TimeBudgetExceeded, errors.IncrementError)
        for cls in (
            errors.ProtocolError,
            errors.WriteBackConflictError,
            errors.ReplicationTimeoutError,
        ):
            assert issubclass(cls, errors.ServerError), cls.__name__

    def test_code_defaults_to_the_class_name(self):
        assert errors.SchemaError("x").code == "SchemaError"
        assert errors.CorruptLogError("x").code == "CorruptLogError"
        error = errors.SchemaError("no table 't'", code="UnknownTableError")
        assert error.code == "UnknownTableError"
        assert str(error) == "no table 't'" and error.details() == {}

    def test_invalid_confidence_is_also_value_error(self):
        # Callers using plain `except ValueError` still catch range bugs.
        assert issubclass(errors.InvalidConfidenceError, ValueError)

    def test_syntax_error_formats_position(self):
        from repro.sql import parse

        with raises_code(errors.ReproError, "SqlSyntaxError") as raised:
            parse("SELECT a\nFROM t\n  WHERE ?")
        error = raised.value
        assert str(error).endswith(" at line 3, column 9")
        assert error.line == 3 and error.column == 9
        assert error.details() == {"line": 3, "column": 9}

    def test_syntax_error_without_position(self):
        # The message is the raise site's text: a code adds nothing to it.
        error = errors.ReproError("boom", code="SqlSyntaxError")
        assert str(error) == "boom"


class TestCatchability:
    def test_one_except_clause_covers_the_library(self):
        from repro.sql import run_sql
        from repro.storage import Database

        db = Database()
        with pytest.raises(errors.ReproError):
            run_sql(db, "SELECT broken FROM nowhere")
        with pytest.raises(errors.ReproError):
            run_sql(db, "NOT EVEN SQL")

    def test_provenance_error_reachable_via_base(self):
        from repro.trust import DataSource

        with pytest.raises(errors.ReproError):
            DataSource("x", trust=99.0)

    def test_cli_command_error_reachable_via_base(self):
        from repro.cli import CommandShell

        with pytest.raises(errors.ReproError):
            CommandShell().execute_line("frobnicate")
