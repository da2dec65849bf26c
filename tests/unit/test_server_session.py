"""Session semantics: pinning, policy context, read-your-own-writes."""

from __future__ import annotations

import pytest

from repro.errors import ReproError, ServerError, WriteBackConflictError
from repro.server import MVCCDatabase, Session
from repro.sql import DmlResult
from repro.workload import venture_capital_database
from tests.error_codes import raises_code


@pytest.fixture()
def serving():
    scenario = venture_capital_database()
    return MVCCDatabase(scenario.db), scenario


def _session(serving, user="bob", purpose="investment") -> Session:
    mvcc, _scenario = serving
    return Session(mvcc, serving[1].policies, user, purpose)


class TestSessionLifecycle:
    def test_session_resolves_policy_context(self, serving):
        with _session(serving) as session:
            assert session.context.user == "bob"
            assert session.context.purpose == "investment"
            assert session.context.role == "Manager"

    def test_unknown_user_is_rejected_at_session_start(self, serving):
        with raises_code(ReproError, "UnknownUserError"):
            _session(serving, user="mallory")

    def test_closed_session_raises_on_use(self, serving):
        session = _session(serving)
        session.close()
        with raises_code(ServerError, "SessionClosedError"):
            session.run_sql("SELECT * FROM Proposal")
        session.close()  # idempotent

    def test_session_close_releases_the_pin(self, serving):
        mvcc, _ = serving
        session = _session(serving)
        pinned = session.seq
        mvcc.commit(lambda db: db.table("Proposal").insert(["X", "P", 1.0]))
        assert set(mvcc.generation_seqs()) == {pinned, mvcc.current_seq}
        session.close()
        assert mvcc.generation_seqs() == [mvcc.current_seq]


class TestSessionReads:
    def test_select_reads_the_pinned_snapshot(self, serving):
        mvcc, _ = serving
        with _session(serving) as session:
            before = session.run_sql("SELECT * FROM Proposal")
            mvcc.commit(
                lambda db: db.table("Proposal").insert(["NewCo", "P9", 5.0])
            )
            again = session.run_sql("SELECT * FROM Proposal")
            assert len(again) == len(before)  # still the pinned generation
            session.refresh()
            assert len(session.run_sql("SELECT * FROM Proposal")) == len(before) + 1

    def test_ask_runs_the_full_pipeline_on_the_snapshot(self, serving):
        _, scenario = serving
        with _session(serving) as session:
            result = session.ask(scenario.QUERY, required_fraction=0.0)
            assert result.status.value == "satisfied"
            assert result.threshold == pytest.approx(0.06)

    def test_ask_is_deterministic_while_writers_commit(self, serving):
        mvcc, scenario = serving
        with _session(serving) as session:
            first = session.ask(scenario.QUERY, required_fraction=0.0)
            mvcc.commit(
                lambda db: db.table("Proposal").insert(["NewCo", "P9", 0.5])
            )
            second = session.ask(scenario.QUERY, required_fraction=0.0)
            assert [r.values for r, _c in first.released] == [
                r.values for r, _c in second.released
            ]
            assert [c for _r, c in first.released] == [
                c for _r, c in second.released
            ]


class TestSessionWrites:
    def test_dml_commits_and_advances_the_pin(self, serving):
        mvcc, _ = serving
        with _session(serving) as session:
            before_seq = session.seq
            result = session.run_sql(
                "INSERT INTO Proposal VALUES ('NewCo', 'P9', 5.0)"
            )
            assert isinstance(result, DmlResult)
            assert session.seq > before_seq  # read-your-own-writes
            rows = session.run_sql(
                "SELECT * FROM Proposal WHERE Company = 'NewCo'"
            )
            assert len(rows) == 1
            # ...and the commit is visible to fresh snapshots of everyone.
            fresh = mvcc.snapshot()
            assert any(
                row.values[0] == "NewCo" for row in fresh.db.table("Proposal").scan()
            )
            fresh.release()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM Proposal",
            "INSERT INTO Proposal VALUES ('NewCo', 'P9', 5.0)",
        ],
    )
    def test_run_sql_parses_each_statement_once(self, serving, monkeypatch, sql):
        """The classification parse is the only parse: DML must not be
        re-parsed inside the MVCC commit lock."""
        from repro.sql import parser

        parses = []
        tokenize = parser.tokenize
        monkeypatch.setattr(
            parser, "tokenize", lambda text: parses.append(text) or tokenize(text)
        )
        with _session(serving) as session:
            session.run_sql(sql)
        assert parses == [sql]

    def test_improvement_writeback_lands_and_repins(self, serving):
        mvcc, scenario = serving
        observer = Session(mvcc, scenario.policies, "alice", "investment")
        with _session(serving) as session:
            pinned = session.seq
            result = session.ask(scenario.QUERY, required_fraction=1.0)
            assert result.status.value == "improved"
            assert session.seq > pinned  # the write-back re-pinned us
        # The observer's older pin never moved...
        assert observer.seq == pinned
        # ...but a refresh shows the committed write-back.
        observer.refresh()
        assert observer.seq == mvcc.current_seq
        observer.close()


class TestConcurrentWriteBack:
    """A strategy is solved and quoted on the asking session's pin; its
    write-back commits into the head.  A commit in between that changed a
    tuple the strategy read refuses the write-back: nothing is written,
    the session re-pins, and the retried ask re-solves on the head."""

    def _concurrently(self, serving, tid, confidence):
        """Pin bob, then commit *tid* → *confidence* from a second session
        of his; returns the head's seq after that commit."""
        bob = _session(serving)
        with _session(serving) as other:
            other.commit(lambda db: db.apply_confidences({tid: confidence}))
        return bob, serving[0].current_seq

    def test_a_concurrent_raise_is_not_overwritten(self, serving):
        mvcc, scenario = serving
        target = scenario.company_ids["13"]  # the strategy's one target
        bob, seq = self._concurrently(serving, target, 0.999)
        with bob:
            with pytest.raises(WriteBackConflictError) as refused:
                bob.ask(scenario.QUERY, required_fraction=1.0)
            assert bob.seq == seq  # re-pinned for the retry
        assert refused.value.retryable and refused.value.changed == 1
        assert mvcc.current_seq == seq  # nothing committed
        assert mvcc.snapshot().db.confidence_of(target) == 0.999

    def test_a_concurrent_lowering_of_a_read_tuple_is_refused(self, serving):
        mvcc, scenario = serving
        read = scenario.proposal_ids["02"]  # a row's tuple, not a target
        bob, seq = self._concurrently(serving, read, 0.2)
        with bob, pytest.raises(WriteBackConflictError):
            bob.ask(scenario.QUERY, required_fraction=1.0)
        head = mvcc.snapshot().db
        assert mvcc.current_seq == seq
        assert head.confidence_of(read) == 0.2
        assert head.confidence_of(scenario.company_ids["13"]) == 0.1

    def test_the_retried_ask_applies_its_strategy_once(self, serving):
        mvcc, scenario = serving
        read, target = scenario.proposal_ids["02"], scenario.company_ids["13"]
        bob, seq = self._concurrently(serving, read, 0.2)
        with bob:
            with pytest.raises(WriteBackConflictError):
                bob.ask(scenario.QUERY, required_fraction=1.0)
            result = bob.ask(scenario.QUERY, required_fraction=1.0)
        assert result.status.value == "improved"
        assert result.quote.plan.read[read] == 0.2  # solved on the head
        [action] = result.receipt.actions
        assert (action.tid, action.old_confidence) == (target, 0.1)
        assert result.receipt.total_cost == result.quote.cost
        assert mvcc.current_seq == seq + 1  # one write-back commit
        assert mvcc.snapshot().db.confidence_of(target) == action.new_confidence


class TestSessionSolves:
    def test_every_ask_carries_the_same_chain(self, serving):
        """The fallback hops are not conditional on a deadline: a hop can
        only follow a budget running out, which needs one."""
        mvcc, scenario = serving
        with Session(
            mvcc, scenario.policies, "bob", "investment", solver="heuristic"
        ) as session:
            assert session.fallback == ("greedy",)
            result = session.ask(scenario.QUERY, required_fraction=1.0)
        assert result.status.value == "improved"
        assert not result.degraded
        assert result.quote.plan.algorithm == "heuristic"
        with _session(serving) as session:  # greedy has no cheaper hop
            assert session.fallback == ()

    def test_a_deadline_ask_starts_no_thread(self, serving, no_new_threads):
        mvcc, scenario = serving
        with Session(
            mvcc, scenario.policies, "bob", "investment", solver="heuristic"
        ) as session:
            result = session.ask(
                scenario.QUERY, required_fraction=1.0, deadline_ms=60_000.0
            )
        assert result.status.value == "improved"
