"""Unit tests for the PCQE command shell."""

import pytest

from repro.cli import CommandShell
from repro.errors import ReproError, SchemaError
from tests.error_codes import raises_code


@pytest.fixture
def shell() -> CommandShell:
    return CommandShell()


def bootstrap(shell: CommandShell) -> None:
    shell.execute_line("create items name:text, price:real")
    shell.execute_line("role add analyst")
    shell.execute_line("purpose add reporting")
    shell.execute_line("user add mira analyst")
    shell.execute_line("policy add analyst reporting 0.5")


class TestSchemaCommands:
    def test_create_and_tables(self, shell):
        output = shell.execute_line("create t a:text, b:int, c:real, d:bool")
        assert "created table t" in output
        listing = shell.execute_line("tables")
        assert "t (0 rows)" in listing
        assert "b:INTEGER" in listing

    def test_create_bad_type(self, shell):
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("create t a:quaternion")

    def test_create_missing_args(self, shell):
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("create t")

    def test_load_csv(self, shell, tmp_path):
        shell.execute_line("create items name:text, price:real")
        csv_path = tmp_path / "items.csv"
        csv_path.write_text(
            "name,price,__confidence__\napple,1.0,0.4\npear,2.0,0.9\n"
        )
        output = shell.execute_line(f"load items {csv_path}")
        assert "loaded 2 rows" in output

    def test_load_unknown_table(self, shell, tmp_path):
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a\n1\n")
        with raises_code(SchemaError, "UnknownTableError"):
            shell.execute_line(f"load missing {csv_path}")

    def test_empty_and_comment_lines(self, shell):
        assert shell.execute_line("") == ""
        assert shell.execute_line("# a comment") == ""

    def test_unknown_command(self, shell):
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("teleport now")


class TestQueryCommands:
    def test_sql_prints_rows_and_confidence(self, shell):
        shell.execute_line("create t a:text")
        shell.db.table("t").insert(["x"], confidence=0.25)
        output = shell.execute_line("sql SELECT a FROM t")
        assert "x | 0.250" in output
        assert "(1 rows)" in output

    def test_explain_prints_plan(self, shell):
        shell.execute_line("create t a:text")
        output = shell.execute_line("explain SELECT a FROM t")
        assert "Scan(t)" in output

    def test_explain_and_profile_ask_say_where_the_plan_came_from(self, shell):
        shell.execute_line("demo")
        sql = "SELECT Company FROM Proposal WHERE Funding < 1.0"
        first = shell.execute_line(f"explain {sql}").splitlines()
        again = shell.execute_line(f"explain {sql}").splitlines()
        assert first[:2] == ["engine: columnar", "plan: planned"]
        assert again[:2] == ["engine: columnar", "plan: cached"]
        assert first[2:] == again[2:]
        ask = f"profile ask bob investment 1.0 {sql}"
        assert "plan: cached" in shell.execute_line(ask).splitlines()
        fresh = shell.execute_line(f"{ask} AND Funding < 2.0")
        assert "plan: planned" in fresh.splitlines()

    def test_profile(self, shell):
        shell.execute_line("create t a:text")
        shell.db.table("t").insert(["x"], confidence=0.25)
        output = shell.execute_line("profile t")
        assert "n=1" in output and "mean=0.250" in output

    def test_profile_empty(self, shell):
        shell.execute_line("create t a:text")
        assert "empty" in shell.execute_line("profile t")


class TestPolicyCommands:
    def test_policy_lifecycle(self, shell):
        bootstrap(shell)
        listing = shell.execute_line("policy list")
        assert "<analyst, reporting, 0.5>" in listing

    def test_policy_list_empty(self, shell):
        assert shell.execute_line("policy list") == "(no policies)"

    def test_role_inherits(self, shell):
        shell.execute_line("role add junior")
        shell.execute_line("role add senior inherits junior")
        assert shell.policies.role_closure("senior") == {"senior", "junior"}

    def test_purpose_under(self, shell):
        shell.execute_line("purpose add care")
        shell.execute_line("purpose add surgery under care")
        assert shell.policies.purpose_ancestry("surgery") == ["surgery", "care"]

    def test_bad_policy_usage(self, shell):
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("policy add too few")

    def test_solver_selection(self, shell):
        assert "dnc" in shell.execute_line("solver dnc")
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("solver quantum")

    def test_solver_deadline_flag(self, shell):
        output = shell.execute_line("solver heuristic --deadline-ms 50")
        assert "deadline 50 ms" in output
        assert shell.deadline_ms == 50.0
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("solver heuristic --deadline-ms soon")
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("solver heuristic --deadline-ms")
        for bad in ("nan", "inf", "-1"):
            with raises_code(ReproError, "CommandError", match="positive and finite"):
                shell.execute_line(f"solver heuristic --deadline-ms {bad}")
        assert shell.deadline_ms == 50.0


class TestAskCommand:
    def test_ask_satisfied(self, shell):
        bootstrap(shell)
        shell.db.table("items").insert(["apple", 1.0], confidence=0.9)
        output = shell.execute_line(
            "ask mira reporting 1.0 SELECT name FROM items"
        )
        assert "status: satisfied" in output
        assert "apple | 0.900" in output

    def test_ask_improves(self, shell):
        from repro.cost import LinearCost

        bootstrap(shell)
        shell.db.table("items").insert(
            ["apple", 1.0], confidence=0.2, cost_model=LinearCost(10.0)
        )
        output = shell.execute_line(
            "ask mira reporting 1.0 SELECT name FROM items"
        )
        assert "status: improved" in output
        assert "quote:" in output

    def test_ask_usage_error(self, shell):
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("ask onlyuser")


class TestDemo:
    def test_demo_loads_running_example(self, shell):
        output = shell.execute_line("demo")
        assert "running example" in output
        result = shell.execute_line(
            "ask bob investment 1.0 "
            "SELECT ci.Company, ci.Income FROM (SELECT DISTINCT Company "
            "FROM Proposal WHERE Funding < 1.0) AS cand JOIN CompanyInfo "
            "AS ci ON cand.Company = ci.Company"
        )
        assert "status: improved" in result
        assert "quote: cost 10.00" in result


class TestProfileAsk:
    def test_profile_ask_prints_stage_breakdown(self, shell):
        shell.execute_line("demo")
        output = shell.execute_line(
            "profile ask bob investment 1.0 "
            "SELECT ci.Company, ci.Income FROM (SELECT DISTINCT Company "
            "FROM Proposal WHERE Funding < 1.0) AS cand JOIN CompanyInfo "
            "AS ci ON cand.Company = ci.Company"
        )
        assert "status: improved" in output
        assert "pcqe.query_evaluation" in output
        assert "pcqe.strategy_finding" in output
        assert "metrics moved this run:" in output

    def test_profile_table_still_works(self, shell):
        shell.execute_line("demo")
        output = shell.execute_line("profile Proposal")
        assert "histogram[0..1):" in output

    def test_profile_usage_error(self, shell):
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("profile")


DEMO_ASK = (
    "ask bob investment 1.0 "
    "SELECT ci.Company, ci.Income FROM (SELECT DISTINCT Company "
    "FROM Proposal WHERE Funding < 1.0) AS cand JOIN CompanyInfo "
    "AS ci ON cand.Company = ci.Company"
)


class TestAuditCommands:
    def test_audit_needs_the_flag(self, shell):
        with raises_code(ReproError, "CommandError"):
            shell.execute_line("audit list")

    def test_audit_list_and_explain(self, tmp_path):
        shell = CommandShell(audit_log=str(tmp_path / "audit.log"))
        try:
            shell.execute_line("demo")
            shell.execute_line(DEMO_ASK)
            listing = shell.execute_line("audit list")
            assert "q1: user=bob purpose=investment" in listing
            assert "status=improved" in listing
            explanation = shell.execute_line("audit explain q1 t0")
            assert "policy=⟨Manager, investment" in explanation
            assert "initial: t0" in explanation
            assert "outcome: improved" in explanation
        finally:
            shell.close()

    def test_audit_list_empty(self, tmp_path):
        shell = CommandShell(audit_log=str(tmp_path / "audit.log"))
        try:
            assert shell.execute_line("audit list") == "(no audited queries)"
        finally:
            shell.close()

    def test_audit_usage_error(self, tmp_path):
        shell = CommandShell(audit_log=str(tmp_path / "audit.log"))
        try:
            with raises_code(ReproError, "CommandError"):
                shell.execute_line("audit")
        finally:
            shell.close()

    def test_audit_survives_shell_restart(self, tmp_path):
        path = str(tmp_path / "audit.log")
        shell = CommandShell(audit_log=path)
        try:
            shell.execute_line("demo")
            shell.execute_line(DEMO_ASK)
        finally:
            shell.close()
        shell = CommandShell(audit_log=path)
        try:
            assert "q1:" in shell.execute_line("audit list")
        finally:
            shell.close()


class TestMetricsCommands:
    def test_metrics_dump_is_valid_openmetrics(self, shell):
        from repro.obs import parse_openmetrics

        shell.execute_line("demo")
        shell.execute_line(DEMO_ASK)
        text = shell.execute_line("metrics dump")
        parse_openmetrics(text + "\n")

    def test_metrics_dump_to_file(self, shell, tmp_path):
        from repro.obs import parse_openmetrics

        target = tmp_path / "metrics.txt"
        output = shell.execute_line(f"metrics dump {target}")
        assert str(target) in output
        parse_openmetrics(target.read_text())

    def test_metrics_usage_error(self, shell):
        for line in ("metrics", "metrics serve 0", "metrics stop", "metrics dump a b"):
            with raises_code(ReproError, "CommandError", match="usage: metrics dump"):
                shell.execute_line(line)


class TestProfileAskAuditLine:
    def test_profile_ask_summarises_the_decision(self, shell):
        shell.execute_line("demo")
        output = shell.execute_line(f"profile {DEMO_ASK}")
        assert "audit: policy ⟨Manager, investment" in output
        assert "released" in output


class TestMainEntry:
    def test_main_with_commands(self, capsys):
        from repro.cli import main

        status = main(["-c", "create t a:text", "tables"])
        assert status == 0
        captured = capsys.readouterr()
        assert "created table t" in captured.out

    def test_main_reports_errors(self, capsys):
        from repro.cli import main

        status = main(["-c", "sql SELECT * FROM missing"])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_main_script_file(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "setup.pcqe"
        script.write_text("create t a:text\ntables\n")
        assert main([str(script)]) == 0
        assert "t (0 rows)" in capsys.readouterr().out

    def test_trace_out_flag_writes_jsonl(self, tmp_path, capsys):
        import json

        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        status = main(
            [
                "--trace-out",
                str(trace),
                "-c",
                "create t a:text",
                "sql INSERT INTO t VALUES ('x')",
                "sql SELECT a FROM t",
            ]
        )
        assert status == 0
        records = [
            json.loads(line)
            for line in trace.read_text().strip().splitlines()
        ]
        assert any(r["name"] == "columnar.scan" for r in records)

    def test_trace_out_flag_requires_value(self, capsys):
        from repro.cli import main

        assert main(["--trace-out"]) == 2
        assert "requires a value" in capsys.readouterr().err

    def test_log_level_flag(self, capsys):
        import logging

        from repro.cli import main

        assert main(["--log-level", "warning", "-c", "tables"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_deadline_ms_flag(self, capsys):
        from repro.cli import main

        assert main(["--deadline-ms", "75", "-c", "tables"]) == 0

    def test_deadline_ms_flag_rejects_bad_values(self, capsys):
        from repro.cli import main

        assert main(["--deadline-ms", "soon", "-c", "tables"]) == 2
        assert "needs a number" in capsys.readouterr().err
        assert main(["--deadline-ms", "-3", "-c", "tables"]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert main(["--deadline-ms", "nan", "-c", "tables"]) == 2
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--engine", "auto", "unknown engine 'auto'"),
            ("--log-level", "bogus", "unknown log level 'bogus'"),
            ("--trace-out", "{tmp}/no-such-dir/trace.jsonl", "No such file"),
            ("--audit-log", "{tmp}/no-such-dir/audit.log", "No such file"),
            ("--data-dir", "{tmp}/a-file/state", "Not a directory"),
        ],
    )
    def test_bad_flag_value_is_a_usage_error(
        self, flag, value, message, tmp_path, capsys
    ):
        from repro.cli import main

        (tmp_path / "a-file").write_text("")
        value = value.format(tmp=tmp_path)
        assert main([flag, value, "-c", "tables"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and message in err

    def test_missing_command_file_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "no-such-script.sql")
        assert main([path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "No such file" in err

    def test_help(self):
        shell = CommandShell()
        assert "ask" in shell.execute_line("help")


class TestServeLifecycle:
    def test_close_stops_the_server_before_the_database(self, tmp_path, monkeypatch):
        from repro.server import ServerClient
        from repro.storage import Database

        data_dir = str(tmp_path / "state")
        shell = CommandShell(data_dir=data_dir)
        bootstrap(shell)
        shell.execute_line("serve 0")
        server = shell.pcqe_server
        host, port = server.host, server.port
        with ServerClient(host, port, user="mira", purpose="reporting") as client:
            assert client.sql("INSERT INTO items VALUES ('a', 1.0)")["ok"]

        stopped_first = []
        close_database = Database.close

        def checked_close(db):
            # A session write acknowledged from here on would not be logged.
            stopped_first.append(server._thread is None)
            close_database(db)

        monkeypatch.setattr(Database, "close", checked_close)
        shell.close()
        assert stopped_first == [True] and shell.pcqe_server is None
        with pytest.raises(ConnectionError):  # refused, not acknowledged
            ServerClient(host, port, user="mira", purpose="reporting")
        monkeypatch.undo()
        recovered = Database.open(data_dir)
        assert recovered.table("items").rows() == [("a", 1.0)]
        recovered.close()
