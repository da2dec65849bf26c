"""Interactive shell for the PCQE system.

A small command language over one in-memory database + policy store, for
exploring the system without writing Python:

.. code-block:: text

    create Proposal Company:text, Proposal:text, Funding:real
    load Proposal proposals.csv
    sql SELECT Company FROM Proposal WHERE Funding < 1.0
    explain SELECT ...                  -- optimized plan tree
    circuit SELECT ...                  -- lineage circuit sharing stats
    profile Proposal                    -- confidence statistics
    profile ask bob investment 1.0 SELECT ...  -- pipeline stage breakdown
    role add Manager [inherits Secretary]
    purpose add investment [under decision-making]
    user add bob Manager
    policy add Manager investment 0.06
    ask bob investment 1.0 SELECT ...   -- the full PCQE pipeline
    demo                                -- load the paper's running example
    help / quit

Run ``python -m repro`` for the REPL, ``python -m repro -c "<command>"``
for one-shot commands, or ``python -m repro script.pcqe`` to execute a
command file.  Every command's implementation returns its output as a
string (see :class:`CommandShell`), so the shell is fully unit-testable.

Observability flags (before any command arguments):

``--trace-out trace.jsonl``
    Stream every span the session produces to a JSON-lines file.
``--log-level debug``
    Configure ``repro`` logging (see :func:`repro.obs.configure_logging`).
``--deadline-ms 50``
    Give each strategy-finding attempt a wall-clock budget; a timed-out
    primary solver degrades to greedy (see ``docs/ROBUSTNESS.md``).
``--engine columnar|native``
    Pick the query execution engine (default ``columnar``; ``native`` is
    the row-at-a-time reference); the ``engine`` shell command changes it
    mid-session and ``explain``/``profile ask`` report it, with whether
    the plan came from the plan cache (see ``docs/ENGINES.md``).
``--data-dir state/``
    Persist the shell's database in *state/* through a write-ahead log
    and checksummed snapshots; reopening the directory recovers every
    committed mutation (see the durability section of
    ``docs/ROBUSTNESS.md``).  Adds the ``recover``, ``fsck`` and
    ``checkpoint`` commands (``fsck <dir>`` also works without
    ``--data-dir``: it verifies every WAL frame CRC and the snapshot
    checksum of any data directory, reporting — never repairing —
    corruption with frame seq and byte offset).
``--audit-log audit.log``
    Journal every ``ask``'s release/block decisions (policy triple,
    confidence, lineage, verdict, increment write-backs) to a
    checksummed append-only audit log; ``audit explain <query-id>
    <tuple-id>`` replays the deterministic explanation and ``audit
    list`` summarizes recorded queries (see ``docs/OBSERVABILITY.md``).

A flag with a bad value (an unknown engine or log level, a trace file,
audit log or data directory that cannot be opened, a deadline that is
not a finite positive number) prints one ``error: --flag…`` line and
exits 2 before any command runs; so does a command file that cannot be
opened (``error: <path>: …``).

Telemetry command: ``metrics dump [path]`` writes the OpenMetrics
exposition of the process's registry (a served database answers the
same text to the ``metrics`` wire op).
"""

from __future__ import annotations

import shlex
import sys
from typing import Callable, Sequence

from .core import SOLVERS, PCQEngine, QueryRequest, greedy_fallback
from .engines import DEFAULT_ENGINE, check_engine
from .errors import PlanError, ReproError
from .increment.runtime import is_deadline
from .policy import PolicyStore, table_confidence_profile
from .sql import DmlResult, execute_sql, pick_engine, prepare_query
from .storage import (
    BOOLEAN,
    Database,
    INTEGER,
    REAL,
    Schema,
    TEXT,
    load_csv,
)

__all__ = ["CommandShell", "main"]

_TYPES = {
    "text": TEXT,
    "string": TEXT,
    "int": INTEGER,
    "integer": INTEGER,
    "real": REAL,
    "float": REAL,
    "bool": BOOLEAN,
    "boolean": BOOLEAN,
}


class PathFlagError(ReproError):
    """A path flag names a file or directory that cannot be opened."""


class CommandShell:
    """State + command dispatch for the PCQE shell."""

    def __init__(
        self,
        deadline_ms: float | None = None,
        data_dir: str | None = None,
        audit_log: str | None = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.engine = check_engine(engine)
        self.data_dir = data_dir
        if data_dir is not None:
            try:
                self.db = Database.open(data_dir, "cli")
            except OSError as error:
                raise PathFlagError(f"--data-dir: {error}") from error
        else:
            self.db = Database("cli")
        self.policies = PolicyStore(default_threshold=0.0)
        self.solver = "greedy"
        self.deadline_ms = deadline_ms
        self.audit_path = audit_log
        self.audit = None
        if audit_log is not None:
            from .obs.audit import AuditLog

            try:
                self.audit = AuditLog(audit_log)
            except OSError as error:
                self.db.close()
                raise PathFlagError(f"--audit-log: {error}") from error
        self._commands: dict[str, Callable[[str], str]] = {
            "create": self._cmd_create,
            "load": self._cmd_load,
            "tables": self._cmd_tables,
            "sql": self._cmd_sql,
            "explain": self._cmd_explain,
            "profile": self._cmd_profile,
            "role": self._cmd_role,
            "purpose": self._cmd_purpose,
            "user": self._cmd_user,
            "policy": self._cmd_policy,
            "solver": self._cmd_solver,
            "engine": self._cmd_engine,
            "circuit": self._cmd_circuit,
            "ask": self._cmd_ask,
            "demo": self._cmd_demo,
            "recover": self._cmd_recover,
            "fsck": self._cmd_fsck,
            "checkpoint": self._cmd_checkpoint,
            "audit": self._cmd_audit,
            "metrics": self._cmd_metrics,
            "serve": self._cmd_serve,
            "connect": self._cmd_connect,
            "help": self._cmd_help,
        }
        self.pcqe_server = None
        self.serve_drain_timeout: float | None = None

    def close(self) -> None:
        """Stop serving, then close the audit log, then the database.

        The server goes first (draining when ``--drain-timeout`` was
        given): a session write it acknowledged after the database had
        closed would not be in the log.
        """
        if self.pcqe_server is not None:
            self._cmd_serve("stop")
        if self.audit is not None:
            self.audit.close()
        self.db.close()

    # -- dispatch -----------------------------------------------------------

    def execute_line(self, line: str) -> str:
        """Run one command line; returns its printable output."""
        line = line.strip()
        if not line or line.startswith("#"):
            return ""
        keyword, _, rest = line.partition(" ")
        handler = self._commands.get(keyword.lower())
        if handler is None:
            raise ReproError(
                f"unknown command {keyword!r}; try 'help'",
                code="CommandError",
            )
        return handler(rest.strip())

    # -- schema / data -------------------------------------------------------

    def _cmd_create(self, rest: str) -> str:
        name, _, column_spec = rest.partition(" ")
        if not name or not column_spec:
            raise ReproError(
                "usage: create <table> name:type, name:type ...", code="CommandError"
            )
        columns = []
        for part in column_spec.split(","):
            column_name, _, type_name = part.strip().partition(":")
            dtype = _TYPES.get(type_name.strip().lower())
            if not column_name or dtype is None:
                raise ReproError(
                    f"bad column {part.strip()!r}; types: "
                    f"{', '.join(sorted(set(_TYPES)))}",
                    code="CommandError",
                )
            columns.append((column_name, dtype))
        self.db.create_table(name, Schema.of(*columns))
        return f"created table {name} ({len(columns)} columns)"

    def _cmd_load(self, rest: str) -> str:
        parts = shlex.split(rest)
        if len(parts) != 2:
            raise ReproError("usage: load <table> <csv-path>", code="CommandError")
        table_name, path = parts
        count = load_csv(self.db.table(table_name), path)
        return f"loaded {count} rows into {table_name}"

    def _cmd_tables(self, rest: str) -> str:
        lines = []
        for table in self.db.tables():
            columns = ", ".join(
                f"{column.name}:{column.dtype}" for column in table.schema
            )
            lines.append(f"{table.name} ({len(table)} rows): {columns}")
        for name in self.db.view_names():
            lines.append(f"{name} (view): {self.db.view_definition(name)}")
        return "\n".join(lines) if lines else "(no tables)"

    # -- querying -------------------------------------------------------------

    def _cmd_sql(self, rest: str) -> str:
        if not rest:
            raise ReproError(
                "usage: sql <SELECT | INSERT | UPDATE | DELETE | "
                "CREATE TABLE | DROP TABLE ...>",
                code="CommandError",
            )
        result = execute_sql(self.db, rest, engine=self.engine)
        if isinstance(result, DmlResult):
            return str(result)
        lines = [" | ".join(result.schema.names) + " | confidence"]
        for row, confidence in result.with_confidences(self.db):
            cells = " | ".join("NULL" if v is None else str(v) for v in row.values)
            lines.append(f"{cells} | {confidence:.3f}")
        lines.append(f"({len(result)} rows)")
        return "\n".join(lines)

    def _cmd_explain(self, rest: str) -> str:
        if not rest:
            raise ReproError("usage: explain <SELECT ...>", code="CommandError")
        statement = prepare_query(self.db, rest)
        prepared = pick_engine(statement.plan, self.engine)
        return (
            f"engine: {prepared.label}\n"
            f"plan: {'cached' if statement.cached else 'planned'}\n"
            f"{prepared.plan.explain()}"
        )

    def _cmd_circuit(self, rest: str) -> str:
        """Compile a query's lineage and report circuit sharing stats."""
        if not rest:
            raise ReproError("usage: circuit <SELECT ...>", code="CommandError")
        result = execute_sql(self.db, rest)
        if isinstance(result, DmlResult):
            raise ReproError("circuit needs a SELECT query", code="CommandError")
        if not len(result):
            return "(no rows — nothing to compile)"
        circuits = result.compiled_circuits()
        stats = result.circuit_stats()
        from .lineage.formula import node_count

        tree_nodes = sum(node_count(row.lineage) for row in result)
        circuit_nodes = int(stats["nodes"])
        return (
            f"rows: {len(result)}\n"
            f"lineage tree nodes: {tree_nodes}\n"
            f"circuit nodes (shared pool): {circuit_nodes}\n"
            f"variables: {int(stats['variables'])}\n"
            f"shared-node hit rate: {stats['shared_hit_rate']:.1%} "
            f"({int(stats['intern_hits'])} intern + "
            f"{int(stats['formula_hits'])} formula hits)\n"
            f"largest row circuit: {max(len(c) for c in circuits)} nodes"
        )

    def _cmd_profile(self, rest: str) -> str:
        if not rest:
            raise ReproError(
                "usage: profile <table> | "
                "profile ask <user> <purpose> <required-fraction> <SELECT ...>",
                code="CommandError",
            )
        if rest.split(maxsplit=1)[0].lower() == "ask":
            return self._profile_ask(rest.split(maxsplit=1)[1] if " " in rest else "")
        profile = table_confidence_profile(self.db.table(rest))
        if profile.count == 0:
            return f"{rest}: empty"
        bars = " ".join(str(count) for count in profile.histogram)
        return (
            f"{rest}: n={profile.count} mean={profile.mean:.3f} "
            f"min={profile.minimum:.3f} p50={profile.quantiles[1]:.3f} "
            f"max={profile.maximum:.3f}\n"
            f"histogram[0..1): {bars}"
        )

    def _profile_ask(self, rest: str) -> str:
        reply, user, purpose, fraction = self._run_pipeline(rest, profile=True)
        assert reply.profile is not None  # profile=True guarantees a report
        lines = [f"status: {reply.status.value} (threshold {reply.threshold})"]
        executed = (
            reply.raw_result.engine if reply.raw_result is not None else None
        )
        lines.append(f"engine: {executed or self.engine}")
        cached = "sql.plan_cache.hits" in reply.profile.metrics
        lines.append(f"plan: {'cached' if cached else 'planned'}")
        # One audit summary line per applicable policy: the decision
        # counts under the ⟨role, purpose, β⟩ that governed this ask.
        policy = self.policies.select_policy(user, purpose)
        shortfall = reply.outcome.shortfall(fraction)
        lines.append(
            f"audit: policy ⟨{policy.role}, {policy.purpose}, "
            f"β={policy.threshold:g}⟩ released={len(reply.released)} "
            f"blocked={reply.withheld_count} shortfall={shortfall} "
            f"status={reply.status.value}"
        )
        lines.append(reply.profile.format())
        return "\n".join(lines)

    # -- policy administration -------------------------------------------------

    def _cmd_role(self, rest: str) -> str:
        parts = shlex.split(rest)
        if len(parts) >= 2 and parts[0] == "add":
            inherits = []
            if len(parts) >= 4 and parts[2] == "inherits":
                inherits = parts[3].split(",")
            self.policies.add_role(parts[1], inherits=inherits)
            return f"role {parts[1]} added"
        raise ReproError("usage: role add <name> [inherits a,b]", code="CommandError")

    def _cmd_purpose(self, rest: str) -> str:
        parts = shlex.split(rest)
        if len(parts) >= 2 and parts[0] == "add":
            parent = parts[3] if len(parts) >= 4 and parts[2] == "under" else None
            self.policies.add_purpose(parts[1], parent=parent)
            return f"purpose {parts[1]} added"
        raise ReproError(
            "usage: purpose add <name> [under <parent>]", code="CommandError"
        )

    def _cmd_user(self, rest: str) -> str:
        parts = shlex.split(rest)
        if len(parts) >= 2 and parts[0] == "add":
            roles = parts[2].split(",") if len(parts) >= 3 else []
            self.policies.add_user(parts[1], roles=roles)
            return f"user {parts[1]} added with roles {roles or '[]'}"
        raise ReproError("usage: user add <name> [role,role]", code="CommandError")

    def _cmd_policy(self, rest: str) -> str:
        parts = shlex.split(rest)
        if len(parts) == 4 and parts[0] == "add":
            policy = self.policies.add_policy(
                parts[1], parts[2], float(parts[3])
            )
            return f"policy {policy} added"
        if parts and parts[0] == "list":
            policies = self.policies.policies()
            if not policies:
                return "(no policies)"
            return "\n".join(str(policy) for policy in policies)
        if len(parts) == 2 and parts[0] == "save":
            from .policy import save_store

            save_store(self.policies, parts[1])
            return f"policy store saved to {parts[1]}"
        if len(parts) == 2 and parts[0] == "load":
            from .policy import load_store

            self.policies = load_store(parts[1])
            return f"policy store loaded from {parts[1]}"
        raise ReproError(
            "usage: policy add <role> <purpose> <threshold> | policy list | "
            "policy save <path> | policy load <path>",
            code="CommandError",
        )

    def _cmd_solver(self, rest: str) -> str:
        parts = rest.split()
        usage = f"usage: solver {'|'.join(SOLVERS)} [--deadline-ms <ms>]"
        if not parts or parts[0] not in SOLVERS:
            raise ReproError(usage, code="CommandError")
        if len(parts) == 3 and parts[1] == "--deadline-ms":
            try:
                deadline_ms = float(parts[2])
            except ValueError:
                raise ReproError(usage, code="CommandError") from None
            if not is_deadline(deadline_ms):
                raise ReproError(
                    f"--deadline-ms must be positive and finite, got {parts[2]!r}",
                    code="CommandError",
                )
            self.deadline_ms = deadline_ms
        elif len(parts) != 1:
            raise ReproError(usage, code="CommandError")
        self.solver = parts[0]
        suffix = (
            f" (deadline {self.deadline_ms:g} ms)"
            if self.deadline_ms is not None
            else ""
        )
        return f"solver set to {parts[0]}{suffix}"

    def _cmd_engine(self, rest: str) -> str:
        if not rest:
            return f"engine: {self.engine}"
        self.engine = check_engine(rest.strip().lower())
        return f"engine set to {self.engine}"

    # -- the pipeline -----------------------------------------------------------

    def _run_pipeline(self, rest: str, profile: bool = False):
        parts = rest.split(maxsplit=3)
        if len(parts) != 4:
            raise ReproError(
                "usage: ask <user> <purpose> <required-fraction> <SELECT ...>",
                code="CommandError",
            )
        user, purpose, fraction_text, sql = parts
        engine = PCQEngine(
            self.db,
            self.policies,
            solver=self.solver,
            fallback=greedy_fallback(self.solver),
            deadline_ms=self.deadline_ms,
            audit=self.audit,
            engine=self.engine,
        )
        reply = engine.execute(
            QueryRequest(sql, purpose, float(fraction_text), profile=profile),
            user=user,
        )
        return reply, user, purpose, float(fraction_text)

    def _cmd_ask(self, rest: str) -> str:
        reply, _user, _purpose, _fraction = self._run_pipeline(rest)
        lines = [
            f"status: {reply.status.value} (threshold {reply.threshold})"
        ]
        if reply.quote is not None:
            lines.append(
                f"quote: cost {reply.quote.cost:.2f} for "
                f"{reply.quote.shortfall} missing row(s)"
            )
        if reply.receipt is not None:
            lines.append(
                f"improved {reply.receipt.tuples_improved} tuple(s) for "
                f"{reply.receipt.total_cost:.2f}"
            )
        for row, confidence in reply.released:
            cells = " | ".join(
                "NULL" if value is None else str(value) for value in row.values
            )
            lines.append(f"{cells} | {confidence:.3f}")
        lines.append(
            f"({len(reply.released)} released, {reply.withheld_count} withheld)"
        )
        return "\n".join(lines)

    def _cmd_demo(self, rest: str) -> str:
        from .workload import venture_capital_database

        scenario = venture_capital_database()
        self.db.close()  # demo replaces the database; release the WAL
        self.db = scenario.db
        self.policies = scenario.policies
        return (
            "loaded the paper's running example "
            "(tables Proposal/CompanyInfo; users alice/bob; try:\n"
            f"  ask bob investment 1.0 {scenario.QUERY})"
        )

    # -- durability -------------------------------------------------------------

    def _cmd_recover(self, rest: str) -> str:
        """Inspect what recovery would find in a data directory.

        Recovers *rest* (or the shell's own --data-dir) into a throwaway
        database and prints the report — it never touches ``self.db``.
        """
        target = rest.strip() or self.data_dir
        if not target:
            raise ReproError(
                "usage: recover <data-dir> (or start with --data-dir)",
                code="CommandError",
            )
        from .storage import recover

        db, report = recover(target)
        db.close()
        return report.format()

    def _cmd_fsck(self, rest: str) -> str:
        """Verify every WAL frame CRC and the snapshot checksum offline.

        Unlike ``recover`` (which *loads* the state), ``fsck`` only
        reads and reports: trailing corruption is printed with its frame
        seq and byte offset, never truncated or repaired.
        """
        target = rest.strip() or self.data_dir
        if not target:
            raise ReproError(
                "usage: fsck <data-dir> (or start with --data-dir)",
                code="CommandError",
            )
        from .storage.durability import fsck_data_dir

        return fsck_data_dir(target).format()

    def _cmd_checkpoint(self, rest: str) -> str:
        if not self.db.is_durable:
            raise ReproError("checkpoint needs --data-dir", code="CommandError")
        nbytes = self.db.checkpoint()
        return f"checkpoint written ({nbytes} bytes); wal compacted"

    # -- auditing & telemetry ---------------------------------------------------

    def _cmd_audit(self, rest: str) -> str:
        """``audit explain <query-id> <tuple-id>`` / ``audit list``."""
        usage = "usage: audit explain <query-id> <tuple-id> | audit list"
        if self.audit_path is None:
            raise ReproError("audit commands need --audit-log", code="CommandError")
        parts = shlex.split(rest)
        from .obs.audit import build_trails, explain_decision, read_audit_log

        records = read_audit_log(self.audit_path)
        if len(parts) == 3 and parts[0] == "explain":
            return explain_decision(records, parts[1], parts[2])
        if parts and parts[0] == "list":
            trails = build_trails(records)
            if not trails:
                return "(no audited queries)"
            lines = []
            for query_id, trail in trails.items():
                query = trail.query or {}
                outcome = trail.outcome or {}
                lines.append(
                    f"{query_id}: user={query.get('user', '?')} "
                    f"purpose={query.get('purpose', '?')} "
                    f"β={query.get('threshold', '?')} "
                    f"status={outcome.get('status', 'in-flight')} "
                    f"decisions={len(trail.decisions)}"
                )
            return "\n".join(lines)
        raise ReproError(usage, code="CommandError")

    def _cmd_metrics(self, rest: str) -> str:
        """``metrics dump [path]``."""
        usage = "usage: metrics dump [path]"
        parts = shlex.split(rest)
        if not parts or parts[0] != "dump" or len(parts) > 2:
            raise ReproError(usage, code="CommandError")
        from .obs import render_openmetrics

        text = render_openmetrics()
        if len(parts) == 2:
            with open(parts[1], "w", encoding="utf-8") as handle:
                handle.write(text)
            return f"metrics written to {parts[1]}"
        return text.rstrip("\n")

    # -- serving ---------------------------------------------------------------

    def _cmd_serve(self, rest: str) -> str:
        """``serve [port] [--drain-timeout S] [--request-timeout S]`` /
        ``serve drain [S]`` / ``serve stop``.

        Serves this shell's database and policy store over the socket
        protocol (see ``docs/SERVING.md``).  Once serving, route writes
        through connected sessions — direct shell DML would bypass the
        server's MVCC commit lock.

        ``serve drain`` (and ``serve stop`` after ``--drain-timeout``)
        shuts down gracefully: in-flight requests finish, new ones get a
        retryable ``ServerDrainingError``, a durable database is
        checkpointed, then the server stops (``docs/ROBUSTNESS.md``).
        """
        usage = (
            "usage: serve [port] [--drain-timeout S] [--request-timeout S]"
            " | serve drain [S] | serve stop"
        )
        parts = shlex.split(rest)
        if parts and parts[0] in ("stop", "drain"):
            if self.pcqe_server is None:
                raise ReproError("no PCQE server running", code="CommandError")
            address = self.pcqe_server.address
            drain_timeout = self.serve_drain_timeout
            if parts[0] == "drain":
                try:
                    drain_timeout = float(parts[1]) if len(parts) > 1 else (
                        drain_timeout if drain_timeout is not None else 5.0
                    )
                except ValueError:
                    raise ReproError(usage, code="CommandError") from None
            if drain_timeout is not None:
                report = self.pcqe_server.drain(drain_timeout)
                self.pcqe_server = None
                state = "drained" if report["drained"] else (
                    f"abandoned {report['inflight']} in-flight request(s)"
                )
                return (
                    f"stopped PCQE server at {address}: {state} in "
                    f"{report['waited_s'] * 1000.0:.0f} ms "
                    f"(checkpoint: {report['checkpoint_bytes']} byte(s))"
                )
            self.pcqe_server.stop()
            self.pcqe_server = None
            return f"stopped PCQE server at {address}"
        if self.pcqe_server is not None:
            raise ReproError(
                f"PCQE server already running at {self.pcqe_server.address}",
                code="CommandError",
            )
        port = 0
        drain_timeout: float | None = None
        request_timeout: float | None = None
        index = 0
        try:
            while index < len(parts):
                token = parts[index]
                if token == "--drain-timeout":
                    drain_timeout = float(parts[index + 1])
                    index += 2
                elif token == "--request-timeout":
                    request_timeout = float(parts[index + 1])
                    index += 2
                else:
                    port = int(token)
                    index += 1
        except (ValueError, IndexError):
            raise ReproError(usage, code="CommandError") from None
        from .server import PCQEServer

        self.serve_drain_timeout = drain_timeout
        self.pcqe_server = PCQEServer(
            self.db,
            self.policies,
            port=port,
            solver=self.solver,
            engine=self.engine,
            request_timeout=request_timeout,
            audit=self.audit,
        ).start()
        return (
            f"serving PCQE sessions at {self.pcqe_server.address} "
            f"(try: connect {self.pcqe_server.address} <user> <purpose> "
            f"<fraction> <SELECT ...>)"
        )

    def _cmd_connect(self, rest: str) -> str:
        """``connect <host:port> <user> <purpose> <fraction> <SELECT ...>``.

        One-shot client session: handshake, one ``ask``, print the
        released rows, disconnect.
        """
        usage = (
            "usage: connect <host:port> <user> <purpose> "
            "<required-fraction> <SELECT ...>"
        )
        parts = rest.split(maxsplit=4)
        if len(parts) != 5:
            raise ReproError(usage, code="CommandError")
        address, user, purpose, fraction_text, sql = parts
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            raise ReproError(usage, code="CommandError")
        try:
            fraction = float(fraction_text)
        except ValueError:
            raise ReproError(usage, code="CommandError") from None
        from .server import ServerClient

        with ServerClient(
            host, int(port_text), user=user, purpose=purpose
        ) as client:
            reply = client.ask(sql, fraction)
        lines = [
            f"session {client.session_id} @seq={client.seq} "
            f"role={client.role}",
            f"status: {reply['status']} (threshold {reply['threshold']})",
        ]
        for values, confidence in zip(reply["rows"], reply["confidences"]):
            cells = " | ".join(
                "NULL" if value is None else str(value) for value in values
            )
            lines.append(f"{cells} | {confidence:.3f}")
        lines.append(
            f"({reply['released']} released, {reply['withheld']} withheld)"
        )
        return "\n".join(lines)

    def _cmd_help(self, rest: str) -> str:
        return (
            "commands: create, load, tables, sql, explain, profile, "
            "role, purpose, user, policy, solver, engine, circuit, ask, "
            "demo, recover, fsck, checkpoint, audit, metrics, serve, "
            "connect, help, quit"
        )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    argv = list(sys.argv[1:] if argv is None else argv)

    trace_sink = None
    trace_out: str | None = None
    deadline_ms: float | None = None
    data_dir: str | None = None
    audit_log: str | None = None
    engine = DEFAULT_ENGINE
    while argv and argv[0] in (
        "--trace-out",
        "--log-level",
        "--deadline-ms",
        "--data-dir",
        "--audit-log",
        "--engine",
    ):
        flag = argv.pop(0)
        if not argv:
            print(f"error: {flag} requires a value", file=sys.stderr)
            return 2
        value = argv.pop(0)
        if flag == "--trace-out":
            trace_out = value
        elif flag == "--data-dir":
            data_dir = value
        elif flag == "--audit-log":
            audit_log = value
        elif flag == "--engine":
            try:
                engine = check_engine(value)
            except PlanError as error:
                print(f"error: --engine: {error}", file=sys.stderr)
                return 2
        elif flag == "--deadline-ms":
            try:
                deadline_ms = float(value)
            except ValueError:
                print(
                    f"error: --deadline-ms needs a number, got {value!r}",
                    file=sys.stderr,
                )
                return 2
            if not is_deadline(deadline_ms):
                print(
                    f"error: --deadline-ms must be positive and finite, "
                    f"got {value!r}",
                    file=sys.stderr,
                )
                return 2
        else:
            from .obs import configure_logging

            try:
                configure_logging(level=value)
            except ValueError as error:
                print(f"error: --log-level: {error}", file=sys.stderr)
                return 2
    if trace_out is not None:
        from .obs import JsonLinesSink, get_tracer

        try:
            trace_sink = JsonLinesSink(trace_out)
        except OSError as error:
            print(f"error: --trace-out: {error}", file=sys.stderr)
            return 2
        get_tracer().add_sink(trace_sink)

    try:
        shell = CommandShell(
            deadline_ms=deadline_ms,
            data_dir=data_dir,
            audit_log=audit_log,
            engine=engine,
        )
    except PathFlagError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:  # e.g. corrupt WAL/snapshot in --data-dir
        print(f"error: {error}", file=sys.stderr)
        return 1

    def run(line: str) -> int:
        try:
            output = shell.execute_line(line)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if output:
            print(output)
        return 0

    try:
        if argv and argv[0] == "-c":
            status = 0
            for line in argv[1:]:
                status |= run(line)
            return status
        if argv:
            status = 0
            for path in argv:
                try:
                    handle = open(path, encoding="utf-8")
                except OSError as error:
                    print(f"error: {path}: {error}", file=sys.stderr)
                    return 2
                with handle:
                    for line in handle:
                        status |= run(line)
            return status

        print("PCQE shell — 'help' for commands, 'quit' to exit")
        while True:
            try:
                line = input("pcqe> ")
            except (EOFError, KeyboardInterrupt, BrokenPipeError):
                break
            if line.strip().lower() in ("quit", "exit"):
                break
            try:
                run(line)
            except BrokenPipeError:  # stdout closed (e.g. piped to head)
                break
        return 0
    finally:
        shell.close()
        if trace_sink is not None:
            from .obs import get_tracer

            get_tracer().remove_sink(trace_sink)
            trace_sink.close()


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
