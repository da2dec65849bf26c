"""Regression tests for the robustness satellites: hardened CSV ingest,
atomic policy-store/CSV persistence, non-fatal trace sinks, and the CLI's
``--data-dir`` / ``recover`` / ``checkpoint`` surface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import CommandShell
from repro.errors import ReproError, SchemaError
from repro.obs import JsonLinesSink, Tracer, get_metrics
from repro.policy import PolicyStore, load_store, save_store
from repro.storage import Database, RetryPolicy, dump_csv, load_csv
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType
from tests.error_codes import raises_code


def _table(db: Database | None = None):
    db = db or Database()
    return db.create_table(
        "items",
        Schema(
            [
                Column("name", DataType.TEXT),
                Column("price", DataType.REAL),
                Column("qty", DataType.INTEGER),
            ]
        ),
    )


# -- CSV ingest hardening --------------------------------------------------


class TestCsvIngest:
    def test_bad_integer_names_file_row_and_column(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("name,price,qty\nапельсин,1.0,две\n")
        with pytest.raises(SchemaError) as excinfo:
            load_csv(_table(), path)
        message = str(excinfo.value)
        assert "items.csv" in message
        assert "row 2" in message
        assert "'qty'" in message
        assert "две" in message

    def test_bad_real_is_schema_error(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("name,price,qty\napple,cheap,1\n")
        with pytest.raises(SchemaError) as excinfo:
            load_csv(_table(), path)
        assert "row 2" in str(excinfo.value)
        assert "'price'" in str(excinfo.value)

    def test_row_number_counts_from_header(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("name,price,qty\na,1.0,1\nb,2.0,oops\n")
        with pytest.raises(SchemaError) as excinfo:
            load_csv(_table(), path)
        assert "row 3" in str(excinfo.value)

    def test_unparseable_confidence_is_schema_error(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("name,price,qty,__confidence__\na,1.0,1,high\n")
        with pytest.raises(SchemaError) as excinfo:
            load_csv(_table(), path)
        assert "__confidence__" in str(excinfo.value)

    @pytest.mark.parametrize("bad", ["1.5", "-0.1", "2", "1e3"])
    def test_out_of_range_confidence_rejected_at_load(self, tmp_path, bad):
        path = tmp_path / "items.csv"
        path.write_text(f"name,price,qty,__confidence__\na,1.0,1,{bad}\n")
        with pytest.raises(SchemaError) as excinfo:
            load_csv(_table(), path)
        assert "outside [0, 1]" in str(excinfo.value)

    def test_boundary_confidences_still_load(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text(
            "name,price,qty,__confidence__\na,1.0,1,0.0\nb,2.0,2,1.0\n"
        )
        table = _table()
        assert load_csv(table, path) == 2
        assert [row.confidence for row in table.scan()] == [0.0, 1.0]

    def test_stream_sources_report_generic_name(self):
        stream = io.StringIO("name,price,qty\na,1.0,nope\n")
        with pytest.raises(SchemaError) as excinfo:
            load_csv(_table(), stream)
        assert "<csv>" in str(excinfo.value)


# -- atomic CSV export -----------------------------------------------------


class TestCsvExport:
    def test_dump_leaves_no_temp_files(self, tmp_path):
        table = _table()
        table.insert(["a", 1.0, 1], confidence=0.5)
        target = tmp_path / "out.csv"
        assert dump_csv(table, target) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert "__confidence__" in target.read_text()

    def test_failed_dump_preserves_previous_export(self, tmp_path):
        table = _table()
        table.insert(["a", 1.0, 1])
        target = tmp_path / "out.csv"
        dump_csv(table, target)
        before = target.read_text()

        class Boom:
            """A value whose str() raises mid-serialization."""

            def __str__(self) -> str:
                raise RuntimeError("unserializable")

        table._rows[0].values = ("x", Boom(), 1)  # sabotage row storage
        with pytest.raises(RuntimeError):
            dump_csv(table, target)
        assert target.read_text() == before  # old file intact, not torn
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# -- atomic policy-store persistence ---------------------------------------


class TestPolicyStorePersistence:
    def _store(self) -> PolicyStore:
        store = PolicyStore(default_threshold=0.1)
        store.add_role("Manager")
        store.add_purpose("investment")
        store.add_user("bob", roles=["Manager"])
        store.add_policy("Manager", "investment", 0.06)
        return store

    def test_save_roundtrip_and_no_temp_files(self, tmp_path):
        target = tmp_path / "policies.json"
        save_store(self._store(), target)
        assert [p.name for p in tmp_path.iterdir()] == ["policies.json"]
        restored = load_store(target)
        assert restored.policies()[0].threshold == 0.06

    def test_failed_save_preserves_previous_snapshot(self, tmp_path, monkeypatch):
        target = tmp_path / "policies.json"
        save_store(self._store(), target)
        before = target.read_text()
        monkeypatch.setattr(
            "repro.policy.serialization.store_to_dict",
            lambda _store: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            save_store(self._store(), target)
        assert target.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["policies.json"]


# -- non-fatal trace sinks -------------------------------------------------


class _FailingHandle:
    """A text handle whose writes start failing on demand."""

    def __init__(self) -> None:
        self.failing = False
        self.lines: list[str] = []

    def write(self, text: str) -> None:
        if self.failing:
            raise OSError(28, "No space left on device")
        self.lines.append(text)

    def flush(self) -> None:
        if self.failing:
            raise OSError(28, "No space left on device")


class TestNonFatalSinks:
    def test_sink_errors_do_not_abort_evaluation(self):
        handle = _FailingHandle()
        sink = JsonLinesSink(handle)
        tracer = Tracer()
        tracer.add_sink(sink)
        errors_before = get_metrics().counter("trace.sink_errors").value

        with tracer.span("works"):
            pass
        handle.failing = True
        with tracer.span("dropped"):  # must not raise
            pass
        handle.failing = False
        with tracer.span("works-again"):
            pass

        assert sink.dropped == 1
        assert (
            get_metrics().counter("trace.sink_errors").value
            == errors_before + 1
        )
        names = [json.loads(line)["name"] for line in handle.lines]
        assert names == ["works", "works-again"]

    def test_flush_and_close_swallow_oserror(self):
        handle = _FailingHandle()
        handle.failing = True
        sink = JsonLinesSink(handle)
        sink.flush()  # must not raise
        sink.close()
        assert sink.dropped >= 1

    def test_retry_policy_recovers_transient_sink_failures(self):
        handle = _FailingHandle()
        attempts = {"n": 0}
        original_write = handle.write

        def flaky_write(text: str) -> None:
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise OSError("transient")
            original_write(text)

        handle.write = flaky_write  # type: ignore[method-assign]
        sink = JsonLinesSink(
            handle,
            retry=RetryPolicy(
                attempts=3, base_delay=0.0, sleep=lambda _s: None
            ),
        )
        tracer = Tracer()
        tracer.add_sink(sink)
        with tracer.span("retried"):
            pass
        assert sink.dropped == 0
        assert len(handle.lines) == 1


# -- CLI durability surface ------------------------------------------------


class TestCliDurability:
    def test_data_dir_persists_across_shells(self, tmp_path):
        data_dir = str(tmp_path / "state")
        shell = CommandShell(data_dir=data_dir)
        shell.execute_line("create items name:text, price:real")
        shell.execute_line("sql INSERT INTO items VALUES ('apple', 1.5)")
        shell.close()

        reopened = CommandShell(data_dir=data_dir)
        output = reopened.execute_line("sql SELECT name FROM items")
        assert "apple" in output
        reopened.close()

    def test_recover_command_reports(self, tmp_path):
        data_dir = str(tmp_path / "state")
        shell = CommandShell(data_dir=data_dir)
        shell.execute_line("create items name:text, price:real")
        shell.execute_line("sql INSERT INTO items VALUES ('apple', 1.5)")
        shell.close()

        inspector = CommandShell()
        report = inspector.execute_line(f"recover {data_dir}")
        assert "wal records replayed: 2" in report
        assert "snapshot: none" in report
        inspector.close()

    def test_checkpoint_command(self, tmp_path):
        data_dir = str(tmp_path / "state")
        shell = CommandShell(data_dir=data_dir)
        shell.execute_line("create items name:text, price:real")
        output = shell.execute_line("checkpoint")
        assert "checkpoint written" in output
        report = shell.execute_line("recover")
        assert "snapshot: loaded" in report
        shell.close()

    def test_checkpoint_requires_data_dir(self):
        shell = CommandShell()
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("checkpoint")

    def test_recover_requires_target(self):
        shell = CommandShell()
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("recover")

    def test_main_accepts_data_dir_flag(self, tmp_path, capsys):
        from repro.cli import main

        data_dir = str(tmp_path / "state")
        status = main(
            [
                "--data-dir",
                data_dir,
                "-c",
                "create items name:text, price:real",
                "sql INSERT INTO items VALUES ('pear', 2.0)",
            ]
        )
        assert status == 0
        status = main(
            ["--data-dir", data_dir, "-c", "sql SELECT name FROM items"]
        )
        assert status == 0
        assert "pear" in capsys.readouterr().out
