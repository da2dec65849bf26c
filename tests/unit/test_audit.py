"""Unit tests for the decision audit journal (repro.obs.audit)."""

import json
import threading

import pytest

from repro import PCQEngine, QueryRequest, QueryStatus
from repro.errors import CorruptLogError, ReproError
from repro.obs.audit import (
    AUDIT_SCHEMA_VERSION,
    AuditLog,
    build_trails,
    explain_decision,
    read_audit_log,
    reconstruct_decisions,
)
from repro.obs.audit.log import _crc32, _encode, _encode_batch
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.policy import PolicyEvaluator
from repro.server import PCQEServer, ServerClient
from repro.storage.durability.wal import scan_wal
from repro.workload import healthcare_database
from tests.error_codes import raises_code


@pytest.fixture
def isolated_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)


def write_one_query(log: AuditLog) -> str:
    query_id = log.begin_query(
        user="alice",
        purpose="analysis",
        role="broker",
        threshold=0.5,
        required_fraction=0.5,
        sql="SELECT * FROM Proposal",
    )
    log.record_decisions(
        query_id,
        [
            ("t0", ["A", 1.5], 0.2, "blocked", "initial", [("Proposal:1", 0.2)]),
            ("t1", ["B", 0.8], 0.7, "released", "initial", [("Proposal:2", 0.7)]),
        ],
    )
    log.record_increment(
        query_id, approved=True, cost=100.0, targets={"Proposal:1": 0.6}
    )
    log.record_decisions(
        query_id,
        [("t0", ["A", 1.5], 0.6, "released", "post_increment", [("Proposal:1", 0.6)])],
    )
    log.end_query(query_id, status="improved", released=2, withheld=0)
    return query_id


class TestAuditLogRoundTrip:
    def test_records_come_back_in_append_order(self, tmp_path, isolated_metrics):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            query_id = write_one_query(log)
        records = read_audit_log(path)
        assert [r["kind"] for r in records] == [
            "query",
            "decision",
            "decision",
            "increment",
            "decision",
            "outcome",
        ]
        assert all(r["query_id"] == query_id for r in records)

    def test_only_the_query_record_carries_schema(self, tmp_path, isolated_metrics):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            write_one_query(log)
        records = read_audit_log(path)
        assert records[0]["schema"] == AUDIT_SCHEMA_VERSION
        assert all("schema" not in r for r in records[1:])

    def test_frames_are_canonical_json_arrays(self, tmp_path, isolated_metrics):
        """Each on-disk frame must be byte-identical to the canonical
        re-encoding of its records — the invariant that lets the hot path
        skip ``sort_keys``."""
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            write_one_query(log)
            write_one_query(log)
        scan = scan_wal(path, checksum=_crc32)
        assert len(scan.payloads) == 2  # one frame per query
        for payload in scan.payloads:
            batch = json.loads(payload.decode("utf-8"))
            canonical = b"[" + b",".join(_encode(r) for r in batch) + b"]"
            assert payload == canonical
            assert _encode_batch(batch) == payload

    def test_verdict_validation(self, tmp_path, isolated_metrics):
        with AuditLog(str(tmp_path / "audit.log")) as log:
            query_id = log.begin_query(
                user="u", purpose="p", role="r",
                threshold=0.5, required_fraction=1.0, sql="SELECT 1",
            )
            with pytest.raises(ValueError):
                log.record_decisions(
                    query_id, [("t0", [], 0.5, "maybe", "initial", [])]
                )

    def test_closed_log_rejects_appends(self, tmp_path, isolated_metrics):
        log = AuditLog(str(tmp_path / "audit.log"))
        log.close()
        log.close()  # idempotent
        with pytest.raises(ValueError):
            log.begin_query(
                user="u", purpose="p", role="r",
                threshold=0.5, required_fraction=1.0, sql="SELECT 1",
            )
        with pytest.raises(ValueError):
            log.record_decisions("q1", [("t0", [], 0.5, "released", "initial", [])])

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_audit_log(tmp_path / "absent.log") == []

    def test_metrics_counters(self, tmp_path, isolated_metrics):
        with AuditLog(str(tmp_path / "audit.log")) as log:
            write_one_query(log)
        snap = isolated_metrics.snapshot()
        assert snap["audit.queries"] == 1
        assert snap["audit.records"] == 6
        assert snap["audit.decisions"] == 3
        assert snap["audit.bytes"] > 0


class TestAuditLogRecovery:
    def test_query_counter_resumes_after_reopen(self, tmp_path, isolated_metrics):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            assert write_one_query(log) == "q1"
            assert write_one_query(log) == "q2"
        with AuditLog(str(path)) as log:
            assert write_one_query(log) == "q3"
        ids = {r["query_id"] for r in read_audit_log(path)}
        assert ids == {"q1", "q2", "q3"}

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path, isolated_metrics):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            write_one_query(log)
        intact = path.read_bytes()
        # A crash mid-append leaves a prefix of the next frame.
        path.write_bytes(intact + b"\x99\x00\x00\x00")
        with AuditLog(str(path)) as log:
            assert write_one_query(log) == "q2"
        records = read_audit_log(path)
        assert {r["query_id"] for r in records} == {"q1", "q2"}

    def test_checksum_corruption_raises(self, tmp_path, isolated_metrics):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            write_one_query(log)
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF  # flip a bit inside the last frame's payload
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptLogError):
            read_audit_log(path)

    def test_close_flushes_orphan_trails(self, tmp_path, isolated_metrics):
        """A query that dies before end_query still leaves its evidence."""
        path = tmp_path / "audit.log"
        log = AuditLog(str(path))
        query_id = log.begin_query(
            user="u", purpose="p", role="r",
            threshold=0.5, required_fraction=1.0, sql="SELECT 1",
        )
        log.record_decisions(
            query_id, [("t0", [1], 0.4, "blocked", "initial", [])]
        )
        log.close()
        records = read_audit_log(path)
        assert [r["kind"] for r in records] == ["query", "decision"]


class TestSynchronousWrites:
    """``end_query`` writes the trail itself: no writer thread, no drain."""

    def test_a_finished_trail_is_on_disk_before_close(
        self, tmp_path, isolated_metrics, no_new_threads
    ):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            write_one_query(log)
            assert len(read_audit_log(path)) == 6

    def test_append_failure_is_surfaced_not_raised(
        self, tmp_path, isolated_metrics
    ):
        with AuditLog(str(tmp_path / "audit.log")) as log:
            def boom(payload):
                raise OSError("disk full")

            log._wal.append = boom
            write_one_query(log)
            assert isinstance(log.write_error, OSError)
        assert isolated_metrics.snapshot()["audit.write_errors"] == 1

    def test_concurrent_queries_keep_their_trails_intact(
        self, tmp_path, isolated_metrics
    ):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            threads = [
                threading.Thread(target=write_one_query, args=(log,))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        trails = build_trails(read_audit_log(path))
        assert len(trails) == 8
        for trail in trails.values():
            assert trail.query is not None
            assert trail.outcome is not None
            assert len(trail.decisions) == 3

    def test_deferred_is_not_an_option(self, tmp_path):
        with pytest.raises(TypeError):
            AuditLog(str(tmp_path / "audit.log"), deferred=True)


class TestReplayAndExplain:
    def test_reconstruct_decisions_matches_disk_bytes(
        self, tmp_path, isolated_metrics
    ):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            query_id = write_one_query(log)
        records = read_audit_log(path)
        replayed = reconstruct_decisions(records, query_id)
        scan = scan_wal(path, checksum=_crc32)
        on_disk = b"".join(scan.payloads)
        assert len(replayed) == 3
        for encoded in replayed:
            assert encoded in on_disk

    def test_reconstruct_unknown_query_raises(self, tmp_path, isolated_metrics):
        with raises_code(ReproError, "AuditReplayError"):
            reconstruct_decisions([], "q404")

    def test_explain_tells_the_whole_story(self, tmp_path, isolated_metrics):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            query_id = write_one_query(log)
        text = explain_decision(read_audit_log(path), query_id, "t0")
        assert "policy=⟨broker, analysis, β=0.5⟩" in text
        assert "initial: t0" in text and "→ blocked" in text
        assert "post_increment: t0" in text and "→ released" in text
        assert "increment (applied)" in text
        assert "verdict changed: blocked → released" in text
        assert "outcome: improved" in text

    def test_explain_missing_tuple_raises(self, tmp_path, isolated_metrics):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            query_id = write_one_query(log)
        records = read_audit_log(path)
        with raises_code(ReproError, "AuditReplayError"):
            explain_decision(records, query_id, "t99")
        with raises_code(ReproError, "AuditReplayError"):
            explain_decision(records, "q404", "t0")


class TestEngineIntegration:
    def test_improvement_run_audits_verdict_changes(
        self, tmp_path, running_example, isolated_metrics
    ):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            engine = PCQEngine(
                running_example.db, running_example.policies, audit=log
            )
            result = engine.execute(
                QueryRequest(running_example.QUERY, "investment", 1.0),
                user="bob",
            )
        assert result.status is QueryStatus.IMPROVED
        records = read_audit_log(path)
        trails = build_trails(records)
        (trail,) = trails.values()
        assert trail.query["user"] == "bob"
        assert trail.query["threshold"] == pytest.approx(0.06)
        assert trail.outcome["status"] == "improved"
        assert trail.increments and trail.increments[0]["approved"]
        phases = {r["phase"] for r in trail.decisions}
        assert phases == {"initial", "post_increment"}
        # Replay reproduces the on-disk decision bytes exactly.
        scan = scan_wal(path, checksum=_crc32)
        on_disk = b"".join(scan.payloads)
        for encoded in reconstruct_decisions(records, trail.query_id):
            assert encoded in on_disk

    def test_post_increment_records_only_changed_tuples(
        self, tmp_path, running_example, isolated_metrics
    ):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            engine = PCQEngine(
                running_example.db, running_example.policies, audit=log
            )
            engine.execute(
                QueryRequest(running_example.QUERY, "investment", 1.0),
                user="bob",
            )
        (trail,) = build_trails(read_audit_log(path)).values()
        initial = {
            r["tuple_id"]: (r["confidence"], r["verdict"])
            for r in trail.decisions
            if r["phase"] == "initial"
        }
        for record in trail.decisions:
            if record["phase"] != "post_increment":
                continue
            assert initial[record["tuple_id"]] != (
                record["confidence"],
                record["verdict"],
            )

    def test_decisions_are_keyed_by_position_not_by_row_identity(
        self, tmp_path, isolated_metrics, monkeypatch
    ):
        """A columnar result builds rows on demand, so the pairs an outcome
        hands out need not be the objects ``result.rows`` holds.  Someone
        reads ``outcome.withheld`` before the trail is written — and the
        trail of an improving pure-join ask is still the native engine's,
        record for record."""
        enforce = PolicyEvaluator.apply_threshold

        def read_withheld_first(result, source, threshold):
            outcome = enforce(result, source, threshold)
            assert all(row.lineage.variables for row, _ in outcome.withheld)
            return outcome

        monkeypatch.setattr(
            PolicyEvaluator, "apply_threshold", staticmethod(read_withheld_first)
        )
        sql = (
            "SELECT p.PatientId, t.Treatment FROM Patients p JOIN Treatments t "
            "ON p.PatientId = t.PatientId WHERE p.Stage = 'II'"
        )
        trails = {}
        for engine_name in ("native", "columnar"):
            scenario = healthcare_database(patients=40, seed=7)
            path = tmp_path / f"{engine_name}.log"
            with AuditLog(str(path)) as log:
                engine = PCQEngine(
                    scenario.db,
                    scenario.policies,
                    solver="greedy",
                    audit=log,
                    engine=engine_name,
                )
                result = engine.execute(
                    QueryRequest(sql, "research", 0.9), user="rachel"
                )
            assert result.status is QueryStatus.IMPROVED
            (trail,) = build_trails(read_audit_log(path)).values()
            trails[engine_name] = trail.decisions
        assert trails["columnar"] == trails["native"]
        assert {(r["phase"], r["verdict"]) for r in trails["columnar"]} == {
            ("initial", "blocked"),
            ("initial", "released"),
            ("post_increment", "released"),
        }

    def test_quoted_run_never_mutates_and_audits_the_quote(
        self, tmp_path, running_example, isolated_metrics
    ):
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            engine = PCQEngine(
                running_example.db,
                running_example.policies,
                approval=lambda quote: False,
                audit=log,
            )
            result = engine.execute(
                QueryRequest(running_example.QUERY, "investment", 1.0),
                user="bob",
            )
        assert result.status is QueryStatus.QUOTED
        (trail,) = build_trails(read_audit_log(path)).values()
        assert trail.outcome["status"] == "quoted"
        assert trail.increments and not trail.increments[0]["approved"]
        # No post-increment pass ran, so every decision is initial.
        assert {r["phase"] for r in trail.decisions} == {"initial"}


class TestServedAsks:
    def test_a_wire_ask_leaves_a_trail_stamped_with_the_sessions_pin(
        self, tmp_path, running_example, isolated_metrics
    ):
        """A server started with an audit log hands it to every session:
        each ask's trail names the snapshot it read.  An in-process ask on
        the live database writes no ``seq``."""
        path = tmp_path / "audit.log"
        with AuditLog(str(path)) as log:
            server = PCQEServer(
                running_example.db, running_example.policies, audit=log
            ).start()
            try:
                with ServerClient(
                    server.host, server.port, user="bob", purpose="investment"
                ) as client:
                    # Move the pin past the hello's first.
                    client.sql("UPDATE Proposal SET Funding = Funding")
                    pin = client.seq
                    reply = client.ask(running_example.QUERY, fraction=0.0)
                    assert reply["status"] == "satisfied"
                    assert client.seq == pin
            finally:
                server.stop()
            PCQEngine(
                running_example.db, running_example.policies, audit=log
            ).execute(
                QueryRequest(running_example.QUERY, "investment", 0.0),
                user="bob",
            )
        served, in_process = build_trails(read_audit_log(path)).values()
        assert pin > 1 and served.query["seq"] == pin
        assert served.query["user"] == "bob" and served.outcome is not None
        assert served.decisions
        assert "seq" not in in_process.query
        assert list(served.query) == sorted(served.query)
