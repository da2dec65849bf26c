"""Session semantics: pinning, policy context, read-your-own-writes."""

from __future__ import annotations

import pytest

from repro.errors import SessionClosedError, UnknownUserError
from repro.server import MVCCDatabase, Session
from repro.sql import DmlResult
from repro.workload import venture_capital_database


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
        with pytest.raises(UnknownUserError):
            _session(serving, user="mallory")

    def test_closed_session_raises_on_use(self, serving):
        session = _session(serving)
        session.close()
        with pytest.raises(SessionClosedError):
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
