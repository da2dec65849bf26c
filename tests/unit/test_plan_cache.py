"""The prepared-plan cache: hits equal misses, stale entries re-plan, and a
cached entry pins no table, generation or session.

The reference everywhere is the uncached sequence the single-step public
functions spell — ``optimize(plan_statement(db, parse(sql)))`` — which the
cache never touches.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.algebra import optimize
from repro.algebra.plan import Scan
from repro.engines import pick_engine
from repro.errors import ReproError, SchemaError, ServerError, UnknownColumnError
from repro.obs import get_metrics
from repro.policy import PolicyStore
from repro.server import Session
from repro.server.mvcc import MVCCDatabase
from repro.sql import (
    execute_sql,
    parse,
    plan_sql,
    plan_statement,
    prepare,
    prepare_query,
    run_sql,
)
from repro.storage import INTEGER, TEXT, Database, Schema
from repro.storage.database import PLAN_CACHE_SIZE
from repro.workload import healthcare_database, venture_capital_database
from tests.integration.test_engine_differential import (
    AGGREGATE_SORT_ASKS,
    HEALTHCARE_QUERIES,
)
from tests.property.test_engine_equivalence import SIZED_QUERIES, sized_db
from tests.error_codes import raises_code

#: The one ask of the golden-plan suite that goes through SQL
#: (``tests.golden_plans.improve_ask_slice``).
GOLDEN_PLAN_ASK = (
    "SELECT p.PatientId, t.Treatment, t.ResponseRate "
    "FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId "
    "WHERE p.PatientId >= 'P0000' AND p.PatientId < 'P0200'"
)


def counters() -> "dict[str, float]":
    metrics = get_metrics()
    return {
        name: metrics.counter(f"sql.plan_cache.{name}").value
        for name in ("hits", "misses", "invalidations")
    }


def moved(before: "dict[str, float]") -> "dict[str, int]":
    return {
        name: int(value - before[name])
        for name, value in counters().items()
        if value != before[name]
    }


def reference(db, sql, engine="columnar"):
    """Plan and run *sql* without the cache."""
    return pick_engine(optimize(plan_statement(db, parse(sql))), engine).execute()


def outcome(run):
    """Rows, lineage — or the error — of one evaluation, comparably."""
    try:
        result = run()
    except ReproError as error:
        return type(error), str(error)
    return (
        result.schema.names,
        [row.values for row in result.rows],
        [row.lineage for row in result.rows],
    )


def tables_of(plan) -> list:
    if isinstance(plan, Scan):
        return [plan.table]
    return [table for child in plan.children for table in tables_of(child)]


# -- differential: miss, then hit, against the uncached reference ------------


def _assert_miss_then_hit_identical(db, sql):
    expected_plan = optimize(plan_statement(db, parse(sql))).explain()
    before = counters()
    first = prepare_query(db, sql)
    second = prepare_query(db, sql)
    assert (first.cached, second.cached) == (False, True)
    assert moved(before) == {"misses": 1, "hits": 1}
    assert first.plan.explain() == second.plan.explain() == expected_plan
    assert first.plan is not second.plan
    for engine in ("columnar", "native"):
        expected = reference(db, sql, engine)
        for prepared in (first, second):
            result = prepared.run(db, engine)
            assert result.engine == engine
            assert result.schema.names == expected.schema.names
            assert [r.values for r in result.rows] == [
                r.values for r in expected.rows
            ]
            assert [r.lineage for r in result.rows] == [
                r.lineage for r in expected.rows
            ]
            assert result.confidences(db) == expected.confidences(db)


@pytest.mark.parametrize("sql", HEALTHCARE_QUERIES + [GOLDEN_PLAN_ASK])
def test_healthcare_corpus_miss_then_hit(sql):
    _assert_miss_then_hit_identical(healthcare_database(120, seed=4).db, sql)


@pytest.mark.parametrize("sql", AGGREGATE_SORT_ASKS)
def test_running_example_corpus_miss_then_hit(sql):
    scenario = venture_capital_database()
    _assert_miss_then_hit_identical(scenario.db, sql)
    _assert_miss_then_hit_identical(scenario.db, scenario.QUERY)


@pytest.mark.parametrize("size", [0, 10, 250])
def test_sized_corpus_miss_then_hit(size):
    db = sized_db(size)
    for sql in SIZED_QUERIES:
        _assert_miss_then_hit_identical(db, sql)


def test_dml_and_ddl_are_never_cached(empty_db):
    """Nothing to plan, and a write's text rarely repeats: an entry per
    INSERT would only churn the cache (EXPERIMENTS.md E19)."""
    before = counters()
    execute_sql(empty_db, "CREATE TABLE t (k TEXT, v INT)")
    insert = "INSERT INTO t VALUES ('a', 1)"
    assert execute_sql(empty_db, insert).rows_affected == 1
    assert execute_sql(empty_db, insert).rows_affected == 1
    execute_sql(empty_db, "CREATE VIEW v AS SELECT k FROM t")
    assert moved(before) == {} and len(empty_db.plan_cache) == 0
    assert len(empty_db.table("t")) == 2
    prepared = prepare(empty_db, insert)
    assert prepared.plan is None and not prepared.cached
    assert prepared.command == prepare(empty_db, insert).command


def test_unoptimized_plans_bypass_the_cache(proposal_db):
    sql = "SELECT Company FROM Proposal WHERE Funding < 1.0"
    before = counters()
    raw = plan_sql(proposal_db, sql, optimized=False)
    assert raw.explain() == plan_statement(proposal_db, parse(sql)).explain()
    assert run_sql(proposal_db, sql, optimized=False).values() == run_sql(
        proposal_db, sql
    ).values()
    assert moved(before) == {"misses": 1}  # the optimized run only
    assert len(proposal_db.plan_cache) == 1


def test_hits_never_mutate_the_shared_template(proposal_db):
    sql = (
        "SELECT p.Company FROM Proposal p JOIN CompanyInfo c "
        "ON p.Company = c.Company WHERE p.Funding < 1.0"
    )
    prepare(proposal_db, sql)
    template, _views = proposal_db.plan_cache.get(sql)
    assert tables_of(template) == [None, None]
    plans = [prepare(proposal_db, sql).plan for _ in range(3)]
    assert tables_of(template) == [None, None]
    assert len({id(plan) for plan in plans}) == 3
    for plan in plans:
        assert tables_of(plan) == [
            proposal_db.table("Proposal"),
            proposal_db.table("CompanyInfo"),
        ]


def test_clone_and_replica_catalogs_do_not_share_a_cache(proposal_db):
    sql = "SELECT Company FROM Proposal"
    prepare(proposal_db, sql)
    clone = proposal_db.clone()
    assert clone.plan_cache is not proposal_db.plan_cache
    assert not prepare(clone, sql).cached
    assert len(proposal_db.plan_cache) == len(clone.plan_cache) == 1


def test_least_recently_used_entry_goes_first(empty_db):
    execute_sql(empty_db, "CREATE TABLE t (k TEXT, v INT)")
    texts = [f"SELECT k FROM t WHERE v = {i}" for i in range(PLAN_CACHE_SIZE)]
    for sql in texts:
        prepare(empty_db, sql)
    assert prepare(empty_db, texts[0]).cached  # touch: now the most recent
    prepare(empty_db, "SELECT v FROM t")
    assert len(empty_db.plan_cache) == PLAN_CACHE_SIZE
    assert prepare(empty_db, texts[0]).cached
    prepare(empty_db, "SELECT k, v FROM t")
    assert not prepare(empty_db, texts[1]).cached


# -- invalidation matrix ------------------------------------------------------


@pytest.fixture
def catalog(empty_db) -> Database:
    for sql in (
        "CREATE TABLE t (k TEXT, v INT)",
        "INSERT INTO t VALUES ('a', 1), ('b', 2) WITH CONFIDENCE 0.5",
        "CREATE TABLE u (k TEXT, w INT)",
        "INSERT INTO u VALUES ('a', 10) WITH CONFIDENCE 0.5",
    ):
        execute_sql(empty_db, sql)
    return empty_db


def _same_as_reference(db, sql):
    assert outcome(lambda: run_sql(db, sql)) == outcome(lambda: reference(db, sql))


class TestInvalidation:
    def test_table_recreated_with_another_schema(self, catalog):
        sql = "SELECT k, v FROM t WHERE v > 1"
        assert run_sql(catalog, sql).values() == [("b", 2)]
        execute_sql(catalog, "DROP TABLE t")
        execute_sql(catalog, "CREATE TABLE t (v TEXT, k INT)")
        execute_sql(catalog, "INSERT INTO t VALUES ('x', 7)")
        before = counters()
        with pytest.raises(ReproError):  # v is TEXT now: '>' against 1 fails
            run_sql(catalog, sql)
        assert moved(before) == {"invalidations": 1}
        assert catalog.plan_cache.get(sql) is None
        _same_as_reference(catalog, sql)
        assert run_sql(catalog, "SELECT k FROM t").values() == [(7,)]

    def test_table_recreated_with_an_equal_schema_still_replans(self, catalog):
        sql = "SELECT k FROM t"
        run_sql(catalog, sql)
        execute_sql(catalog, "DROP TABLE t")
        execute_sql(catalog, "CREATE TABLE t (k TEXT, v INT)")
        before = counters()
        assert run_sql(catalog, sql).values() == []
        assert moved(before) == {"invalidations": 1, "misses": 1}
        assert tables_of(prepare(catalog, sql).plan) == [catalog.table("t")]

    def test_dropped_table_raises_the_planner_error(self, catalog):
        sql = "SELECT k FROM t"
        run_sql(catalog, sql)
        execute_sql(catalog, "DROP TABLE t")
        for _ in range(2):
            with raises_code(SchemaError, "UnknownTableError", match="no table 't'"):
                run_sql(catalog, sql)
        assert catalog.plan_cache.get(sql) is None

    def test_create_and_drop_view(self, catalog):
        sql = "SELECT k FROM big"
        with raises_code(SchemaError, "UnknownTableError"):
            run_sql(catalog, sql)
        execute_sql(catalog, "CREATE VIEW big AS SELECT k FROM t WHERE v > 1")
        assert run_sql(catalog, sql).values() == [("b",)]
        assert prepare(catalog, sql).cached
        execute_sql(catalog, "DROP VIEW big")
        before = counters()
        with raises_code(SchemaError, "UnknownTableError"):
            run_sql(catalog, sql)
        assert moved(before) == {"invalidations": 1}

    def test_view_redefined(self, catalog):
        sql = "SELECT k FROM big"
        execute_sql(catalog, "CREATE VIEW big AS SELECT k FROM t WHERE v > 1")
        assert run_sql(catalog, sql).values() == [("b",)]
        execute_sql(catalog, "DROP VIEW big")
        execute_sql(catalog, "CREATE VIEW big AS SELECT k FROM t WHERE v < 2")
        before = counters()
        assert run_sql(catalog, sql).values() == [("a",)]
        assert moved(before) == {"invalidations": 1, "misses": 1}
        assert prepare(catalog, sql).cached

    def test_inner_view_of_a_view_redefined(self, catalog):
        sql = "SELECT k FROM outer_v"
        execute_sql(catalog, "CREATE VIEW inner_v AS SELECT k, v FROM t WHERE v > 1")
        execute_sql(catalog, "CREATE VIEW outer_v AS SELECT k FROM inner_v")
        assert run_sql(catalog, sql).values() == [("b",)]
        execute_sql(catalog, "DROP VIEW inner_v")
        execute_sql(catalog, "CREATE VIEW inner_v AS SELECT k, v FROM t")
        assert run_sql(catalog, sql).values() == [("a",), ("b",)]

    def test_table_created_over_a_views_name(self, catalog):
        sql = "SELECT k FROM big"
        execute_sql(catalog, "CREATE VIEW big AS SELECT k FROM t")
        assert run_sql(catalog, sql).values() == [("a",), ("b",)]
        execute_sql(catalog, "DROP VIEW big")
        execute_sql(catalog, "CREATE TABLE big (k TEXT)")
        execute_sql(catalog, "INSERT INTO big VALUES ('only')")
        # The catalog refuses both at once; force the shadowing the
        # validation rule names and check the table wins, as in the planner.
        catalog._views["big"] = "SELECT k FROM t"
        assert run_sql(catalog, sql).values() == [("only",)]
        _same_as_reference(catalog, sql)

    def test_three_way_join_follows_the_statistics(self, catalog):
        execute_sql(catalog, "CREATE TABLE w (k TEXT, z INT)")
        execute_sql(catalog, "INSERT INTO w VALUES ('a', 5)")
        sql = (
            "SELECT t.v, u.w, w.z FROM t JOIN u ON t.k = u.k "
            "JOIN w ON u.k = w.k"
        )
        before = counters()
        first = plan_sql(catalog, sql).explain()
        assert moved(before) == {"misses": 1}
        assert first == optimize(plan_statement(catalog, parse(sql))).explain()
        # Flip the row counts: t becomes the smallest relation.
        execute_sql(catalog, "DELETE FROM t WHERE k = 'b'")
        for i in range(20):
            execute_sql(catalog, f"INSERT INTO u VALUES ('a', {i})")
            execute_sql(catalog, f"INSERT INTO w VALUES ('a', {i})")
        before = counters()
        second = plan_sql(catalog, sql).explain()
        assert moved(before) == {"misses": 1}
        assert second == optimize(plan_statement(catalog, parse(sql))).explain()
        assert first != second
        assert catalog.plan_cache.get(sql) is None  # data-dependent: not kept
        _same_as_reference(catalog, sql)

    def test_failing_text_raises_twice_and_leaves_no_entry(self, catalog):
        for sql, error, code in (
            ("SELEKT 1", ReproError, "SqlSyntaxError"),
            ("SELECT nope FROM t", UnknownColumnError, "UnknownColumnError"),
            ("SELECT k FROM nowhere", SchemaError, "UnknownTableError"),
        ):
            size = len(catalog.plan_cache)
            messages = []
            for _ in range(2):
                with raises_code(error, code) as raised:
                    run_sql(catalog, sql)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
            assert len(catalog.plan_cache) == size
            assert catalog.plan_cache.get(sql) is None

    def test_dml_text_through_the_query_functions_fails_as_before(self, catalog):
        insert = "INSERT INTO t VALUES ('c', 3)"
        execute_sql(catalog, insert)
        for function in (run_sql, plan_sql):
            with raises_code(ReproError, "SqlSyntaxError", match="expected SELECT"):
                function(catalog, insert)
        assert len(catalog.table("t")) == 3


# -- sessions: quarantine, closed sessions, generations ------------------------


@pytest.fixture
def policies() -> PolicyStore:
    store = PolicyStore(default_threshold=0.0)
    store.add_role("Manager")
    store.add_purpose("ops")
    store.add_user("bob", roles=["Manager"])
    store.add_policy("Manager", "ops", 0.1)
    return store


class TestSessions:
    def test_quarantine_is_checked_on_a_hit(self, catalog, policies):
        mvcc = MVCCDatabase(catalog)
        quarantine: set[str] = set()
        sql = "SELECT T.k FROM T JOIN u ON T.k = u.k"
        with Session(mvcc, policies, "bob", "ops", quarantine=quarantine) as session:
            assert session.ask(sql).rows == [("a",)]
            quarantine.add("t")
            errors = []
            for run in (lambda: session.ask(sql), lambda: session.run_sql(sql)):
                before = counters()
                with raises_code(ServerError, "QuarantinedTableError") as raised:
                    run()
                assert moved(before) == {}  # refused before any accounting
                errors.append(raised.value)
            with raises_code(ServerError, "QuarantinedTableError") as planned:
                plan_statement(session.db, parse(sql))
            assert {str(error) for error in errors} == {str(planned.value)}
            assert errors[0].details() == planned.value.details()
            quarantine.clear()
            assert session.ask(sql).rows == [("a",)]
            assert prepare(session.db, sql).cached

    def test_closed_session_is_refused_on_a_hit(self, catalog, policies):
        mvcc = MVCCDatabase(catalog)
        session = Session(mvcc, policies, "bob", "ops")
        sql = "SELECT k FROM t"
        session.ask(sql)
        session.close()
        for run in (lambda: session.ask(sql), lambda: session.run_sql(sql)):
            with raises_code(ServerError, "SessionClosedError"):
                run()

    def test_a_session_reads_its_own_pinned_generation(self, catalog, policies):
        mvcc = MVCCDatabase(catalog)
        sql = "SELECT k FROM t WHERE v > 0"
        with Session(mvcc, policies, "bob", "ops") as old, Session(
            mvcc, policies, "bob", "ops"
        ) as new:
            assert len(old.run_sql(sql)) == 2
            new.run_sql("INSERT INTO t VALUES ('c', 3)")
            assert prepare(new.db, sql).cached
            assert len(new.run_sql(sql)) == 3
            assert len(old.run_sql(sql)) == 2  # same entry, older pin
            old.refresh()
            assert len(old.run_sql(sql)) == 3

    def test_full_cache_pins_no_generation(self, catalog, policies):
        """The 372 MB failure of the prototype, as a unit test: plans that
        kept their ``SnapshotTable`` held every dead generation's rows."""
        mvcc = MVCCDatabase(catalog)
        with Session(mvcc, policies, "bob", "ops") as session:
            for i in range(PLAN_CACHE_SIZE + 8):
                session.ask(f"SELECT t.k FROM t JOIN u ON t.k = u.k WHERE t.v = {i}")
            assert len(catalog.plan_cache) == PLAN_CACHE_SIZE
            previous = weakref.ref(session.db.table("t"))
            for i in range(3):
                session.run_sql(f"INSERT INTO t VALUES ('n{i}', {i})")
                session.ask(f"SELECT k FROM t WHERE v = {i}")
            session.refresh()
            gc.collect()
            assert previous() is None
            assert mvcc.generation_seqs() == [mvcc.current_seq]
            for template, _views in list(catalog.plan_cache._entries.values()):
                assert not any(tables_of(template))


# -- concurrency --------------------------------------------------------------


def test_readers_equal_the_uncached_reference_under_dml_and_ddl(
    catalog, policies
):
    """8 sessions ask 4 texts while a ninth commits DML and DDL — recreated
    tables under another schema, views redefined — and every reply (rows,
    lineage or error) equals planning from scratch on the same pin."""
    execute_sql(catalog, "CREATE VIEW big AS SELECT k, v FROM t WHERE v > 1")
    mvcc = MVCCDatabase(catalog)
    texts = [
        "SELECT k, v FROM t WHERE v > 0",
        "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k",
        "SELECT k FROM big",
        "SELECT k FROM u WHERE w > 5",
    ]
    script = [
        "INSERT INTO t VALUES ('z', 9)",
        "DROP VIEW big",
        "CREATE VIEW big AS SELECT k FROM t WHERE v < 2",
        "DROP TABLE u",
        "CREATE TABLE u (w TEXT, k INT)",
        "INSERT INTO u VALUES ('text', 1)",
        "DELETE FROM t WHERE k = 'z'",
        "DROP VIEW big",
        "CREATE VIEW big AS SELECT k, v FROM t WHERE v > 1",
        "DROP TABLE u",
        "CREATE TABLE u (k TEXT, w INT)",
        "INSERT INTO u VALUES ('a', 10)",
    ]
    stop = threading.Event()
    failures: list = []
    asked = [0] * 8

    def reader(index: int) -> None:
        try:
            with Session(mvcc, policies, "bob", "ops") as session:
                while not stop.is_set():
                    session.refresh()
                    for sql in texts:
                        got = outcome(lambda: session.run_sql(sql))
                        want = outcome(lambda: reference(session.db, sql))
                        if got != want:
                            failures.append((sql, got, want))
                        asked[index] += 1
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(error)

    def writer() -> None:
        try:
            with Session(mvcc, policies, "bob", "ops") as session:
                for _ in range(40):
                    for sql in script:
                        session.run_sql(sql)
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(error)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert failures == []
    assert all(count >= len(texts) for count in asked)
    assert mvcc.generation_seqs() == [mvcc.current_seq]


def test_equal_schemas_are_distinct_objects_and_snapshots_share_them(empty_db):
    """Two equal schemas are different objects — the identity check is what
    tells a recreated table from the one the plan was made for."""
    first = empty_db.create_table("a", Schema.of(("k", TEXT), ("v", INTEGER)))
    second = empty_db.create_table("b", Schema.of(("k", TEXT), ("v", INTEGER)))
    assert first.schema is not second.schema
    assert MVCCDatabase(empty_db).snapshot().db.table("a").schema is first.schema
