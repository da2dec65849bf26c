"""A deterministic guard on what an ``ask`` builds for the rows it withholds.

Timings drift; counts repeat exactly.  The lineage of a scan → filter →
project → inner equi-join pipeline stays deferred to the root — DISTINCT,
GROUP BY and ``IN`` add one group per key or probed value to it — its
confidences are products over the factors and the policy filter is a
mask over them: an ask builds ``AnnotatedTuple``s, ``Var``s, ``And``s and
``Or``s for the rows someone reads, and strategy finding reads a join row
it has to lift off its factors, so only a row that is not a plain product
is compiled for it.  At the commit before this guard every count below
grew with the number of withheld rows (two ``Var``s, an ``And``, an
``AnnotatedTuple`` and three circuit-node requests per row of the result),
until groups kept it deferred a DISTINCT or ``IN`` ask compiled a circuit
for every row, and until strategy finding read the factors an improving
join ask built all four again for every row it lifted.
"""

import pytest

from repro import QueryStatus
from repro.algebra import rows as rows_module
from repro.algebra.rows import AnnotatedTuple, ResultSet
from repro.engines.columnar.batch import ColumnBatch
from repro.engines.columnar.engine import run_batch
from repro.errors import ExecutionError
from repro.lineage.circuit import CircuitPool
from repro.lineage.formula import And, Or, Var
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.policy import PolicyEvaluator, PolicyStore
from repro.server.mvcc import MVCCDatabase, SnapshotDatabase
from repro.server.session import Session
from repro.sql import prepare, run_sql
from repro.storage import Database, INTEGER, Schema
from repro.storage.tuples import TupleId

JOIN = "SELECT l.k, r.x FROM l JOIN r ON l.k = r.k WHERE l.flag = 1"
BETA = 0.5


def _database(released: int, withheld: int) -> Database:
    """``l(k, flag)``: 200 rows at 0.9, keys 0–49 flagged.  ``r(k, x)``:
    *released* partners at 0.9 (0.81 > β) then *withheld* ones at 0.1."""
    db = Database("ask")
    left = db.create_table("l", Schema.of(("k", INTEGER), ("flag", INTEGER)))
    left.insert_rows([[k, int(k < 50)] for k in range(200)], confidence=0.9)
    right = db.create_table("r", Schema.of(("k", INTEGER), ("x", INTEGER)))
    right.insert_rows([[j % 50, j] for j in range(released)], confidence=0.9)
    right.insert_rows(
        [[j % 50, released + j] for j in range(withheld)], confidence=0.1
    )
    return db


def _session(db: Database) -> Session:
    policies = PolicyStore(default_threshold=0.0)
    policies.add_role("Analyst")
    policies.add_purpose("review")
    policies.add_user("ann", roles=["Analyst"])
    policies.add_policy("Analyst", "review", BETA)
    return Session(MVCCDatabase(db), policies, "ann", "review", solver="greedy")


def _counters(count_calls) -> dict[str, list[int]]:
    return {
        "Var": count_calls(Var, "__init__"),
        "And": count_calls(And, "__init__"),
        "Or": count_calls(Or, "__init__"),
        "AnnotatedTuple": count_calls(AnnotatedTuple, "__init__"),
        "node": count_calls(CircuitPool, "_node"),
    }


def _read(counters) -> dict[str, int]:
    return {name: calls[0] for name, calls in counters.items()}


def test_an_ask_builds_rows_for_what_is_read_not_what_is_withheld(
    monkeypatch, count_calls
):
    released = 60
    after_ask, after_reading = {}, {}
    for withheld in (40, 4_000):
        session = _session(_database(released, withheld))
        counters = _counters(count_calls)
        reply = session.ask(JOIN, 0.0)
        assert reply.status is QueryStatus.SATISFIED
        assert (len(reply.released), reply.withheld_count) == (released, withheld)
        # What the wire reply is made of: values and floats.
        assert len(reply.rows) == len(reply.confidences) == released
        assert min(reply.confidences) > BETA
        after_ask[withheld] = _read(counters)
        assert all(type(row.lineage) is And for row, _conf in reply.released)
        after_reading[withheld] = _read(counters)
        monkeypatch.undo()
        session.close()
    nothing = {"Var": 0, "And": 0, "Or": 0, "AnnotatedTuple": 0, "node": 0}
    assert after_ask[40] == after_ask[4_000] == nothing
    # One ``Var`` per base tuple read: the 50 flagged keys, their partners.
    assert after_reading[40] == after_reading[4_000] == {
        "Var": 50 + released,
        "And": released,
        "Or": 0,
        "AnnotatedTuple": released,
        "node": 0,
    }


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT DISTINCT l.flag FROM l JOIN r ON l.k = r.k",
        "SELECT k FROM l WHERE flag = 1 AND k IN (SELECT k FROM r)",
        "SELECT k FROM l WHERE k NOT IN (SELECT k FROM r WHERE x > 30)",
        "SELECT l.flag, COUNT(*) FROM l JOIN r ON l.k = r.k GROUP BY l.flag",
    ],
    ids=["distinct-join", "in", "not-in", "group-by-join"],
)
def test_a_grouping_ask_builds_no_formula_and_no_circuit(
    monkeypatch, count_calls, sql
):
    """A DISTINCT / GROUP BY over a join and an ``IN`` keep one group per
    key or probed value: the ask and its reply build nothing, whatever the
    size of the input."""
    counts = {}
    for withheld in (40, 4_000):
        session = _session(_database(60, withheld))
        counters = _counters(count_calls)
        reply = session.ask(sql, 0.0)
        assert len(reply.rows) == len(reply.confidences) > 0
        counts[withheld] = _read(counters)
        monkeypatch.undo()
        session.close()
    nothing = {"Var": 0, "And": 0, "Or": 0, "AnnotatedTuple": 0, "node": 0}
    assert counts[40] == counts[4_000] == nothing


def test_an_improving_join_ask_builds_nothing_it_lifts(
    monkeypatch, count_calls
):
    """The rows strategy finding lifts reach the solver as their factor
    tuples, and the solver multiplies them: no row, formula or circuit is
    built, however many rows are released or withheld."""
    counts = {}
    for released, withheld in ((30, 12), (3_000, 12), (30, 1_200)):
        session = _session(_database(released, withheld))
        counters = _counters(count_calls)
        reply = session.ask(JOIN, 1.0)
        counts[released, withheld] = _read(counters)
        monkeypatch.undo()
        assert reply.status is QueryStatus.IMPROVED
        assert (len(reply.released), reply.withheld_count) == (
            released + withheld,
            0,
        )
        # The re-enforcement after the write-back was a product again.
        assert not reply.raw_result.has_compiled_circuits
        session.close()
    nothing = {"Var": 0, "And": 0, "Or": 0, "AnnotatedTuple": 0, "node": 0}
    assert list(counts.values()) == [nothing] * 3


def _star_database(keys: int) -> Database:
    """``l(k)``: *keys* rows at 0.9.  ``r(k)``: two rows per key at 0.1, so
    ``DISTINCT l.k`` over the join is one star group per key, ``(l ∧ r) ∨
    (l ∧ r′)`` at 0.9 · 0.19 — withheld under β = 0.5, not a plain
    product."""
    db = Database("star")
    left = db.create_table("l", Schema.of(("k", INTEGER)))
    left.insert_rows([[k] for k in range(keys)], confidence=0.9)
    right = db.create_table("r", Schema.of(("k", INTEGER)))
    right.insert_rows([[k % keys] for k in range(2 * keys)], confidence=0.1)
    return db


def test_an_improving_ask_still_compiles_rows_that_are_not_products(
    monkeypatch, count_calls
):
    """A star group is product-form on the read path but not a plain
    product for the solver: each row it lifts is built and compiled, so
    the work follows the number of withheld rows."""
    counts = {}
    for keys in (10, 20):
        session = _session(_star_database(keys))
        counters = _counters(count_calls)
        reply = session.ask(
            "SELECT DISTINCT l.k FROM l JOIN r ON l.k = r.k", 1.0
        )
        counts[keys] = _read(counters)
        monkeypatch.undo()
        assert reply.status is QueryStatus.IMPROVED
        assert len(reply.released) == keys
        session.close()
    # Per lifted row: its tuple, formula and eight node requests (the
    # Shannon step on the hub); per problem, one ⊥ constant.
    assert counts[10]["AnnotatedTuple"] == 10
    assert {keys: count["node"] for keys, count in counts.items()} == {
        10: 8 * 10 + 1,
        20: 8 * 20 + 1,
    }
    assert counts[20] == {
        name: 2 * count if name != "node" else 8 * 20 + 1
        for name, count in counts[10].items()
    }


@pytest.mark.parametrize(
    "sql, product_form",
    [
        (JOIN, True),
        ("SELECT l.k FROM l WHERE l.flag = 1 ORDER BY k DESC LIMIT 7", True),
        (
            "SELECT a.k, r.x FROM (SELECT k FROM l WHERE flag = 1) AS a "
            "JOIN r ON a.k = r.k",
            True,
        ),
        # Two tid columns of one table can meet in And(x, x) = x.
        ("SELECT a.k, b.flag FROM l a JOIN l b ON a.k = b.k", False),
        ("SELECT l.k, r.x FROM l LEFT JOIN r ON l.k = r.k", False),
        (
            "SELECT d.k, r.x FROM (SELECT DISTINCT k FROM l WHERE flag = 1) "
            "AS d JOIN r ON d.k = r.k",
            True,
        ),
        # Star groups: within a key only the l tuple repeats.
        ("SELECT DISTINCT l.flag FROM l JOIN r ON l.k = r.k", True),
        ("SELECT r.k, COUNT(*) FROM l JOIN r ON l.k = r.k GROUP BY r.k", True),
        ("SELECT k FROM l WHERE k IN (SELECT k FROM r WHERE x > 5)", True),
        ("SELECT k FROM l WHERE k NOT IN (SELECT k FROM r WHERE x > 5)", True),
        # Both join sides repeat within a key: not star-shaped.
        ("SELECT DISTINCT l.flag FROM l JOIN r ON l.flag = r.k", False),
        ("SELECT k FROM l WHERE k IN (SELECT k FROM l WHERE flag = 1)", False),
        (
            "SELECT DISTINCT flag FROM l WHERE k IN (SELECT k FROM r)",
            False,
        ),
        ("SELECT k FROM l WHERE flag = 1 UNION SELECT k FROM r", False),
    ],
    ids=[
        "join",
        "sort-limit",
        "derived",
        "self-join",
        "left",
        "distinct-derived",
        "distinct-join",
        "group-by-join",
        "in",
        "not-in",
        "non-star",
        "self-semijoin",
        "distinct-over-in",
        "union",
    ],
)
def test_which_plans_are_products_and_which_still_compile(
    count_calls, sql, product_form
):
    db = _database(20, 20)
    nodes = count_calls(CircuitPool, "_node")
    result = run_sql(db, sql, engine="columnar")
    confidences = result.confidences(db)
    assert len(confidences) == len(result) > 0
    assert result.has_compiled_circuits is not product_form
    assert (nodes[0] == 0) is product_form
    native = run_sql(db, sql, engine="native")
    assert [c.hex() for c in confidences] == [
        c.hex() for c in native.confidences(db)
    ]
    assert [row.lineage for row in result.rows] == [
        row.lineage for row in native.rows
    ]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT l.k, r.x FROM l JOIN r ON l.k = r.k WHERE l.k >= 50",
        "SELECT l.k, r.x FROM l JOIN r ON l.k = r.k WHERE r.x < 0",
    ],
    ids=["no-partner", "empty-input"],
)
def test_an_empty_inner_join_stays_deferred(count_calls, sql):
    """No matching pair is an empty batch of index pairs, not a fall back
    to the row operator: the lineage stays deferred and no ``Var`` is
    built for either input."""
    db = _database(20, 20)
    variables = count_calls(Var, "__init__")
    joined = run_batch(prepare(db, sql).plan)
    assert len(joined) == 0
    assert joined.factors is not None
    assert variables[0] == 0


def test_tids_says_when_rows_are_not_rows_of_one_table():
    """DML's row selector: defined for a batch that is still one table's
    rows; a join's batch used to die on ``And.tid``, and a DISTINCT's
    holds groups, not tuples."""
    db = _database(5, 5)
    one_table = run_batch(prepare(db, "SELECT k FROM l WHERE flag = 1").plan)
    assert [tid.table for tid in one_table.tids()] == ["l"] * 50
    joined = run_batch(prepare(db, JOIN).plan)
    assert len(joined.factors) == 2
    distinct = run_batch(prepare(db, "SELECT DISTINCT flag FROM l").plan)
    assert len(distinct.factors) == 1 and len(distinct) == 2
    for batch in (joined, joined.gather([0, 1]), distinct):
        with pytest.raises(ExecutionError, match="rows of one table"):
            batch.tids()
    joined.lineage_column()  # materialised: still not one table's rows
    with pytest.raises(ExecutionError, match="rows of one table"):
        joined.tids()


@pytest.mark.parametrize(
    "sql, compiles",
    [(JOIN, False), ("SELECT l.k, r.x FROM l LEFT JOIN r ON l.k = r.k", True)],
    ids=["product", "compiled"],
)
def test_enforcement_describes_a_pool_only_when_one_was_built(
    count_calls, sql, compiles
):
    """``policy.confidence`` carries ``circuit.*`` attributes and the pass
    counts as a pool compile when it compiled; a product-form pass must
    not build a pool to describe it."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    stats = count_calls(ResultSet, "circuit_stats")
    try:
        db = _database(20, 20)
        result = run_sql(db, sql, engine="columnar")
        with get_tracer().capture() as sink:
            outcome = PolicyEvaluator.apply_threshold(result, db, BETA)
    finally:
        set_metrics(previous)
    (span,) = [s for s in sink.spans if s.name == "policy.confidence"]
    assert span.attributes["rows"] == outcome.total > 0
    assert ("circuit.nodes" in span.attributes) is compiles
    assert stats[0] == int(compiles)
    assert result.has_compiled_circuits is compiles
    counters = registry.snapshot()
    assert counters.get("circuit.pool_compiles", 0) == int(compiles)
    assert counters["policy.rows_evaluated"] == outcome.total


@pytest.mark.parametrize(
    "sql, database",
    [
        (JOIN, lambda: _database(60, 400)),
        (
            "SELECT DISTINCT l.k FROM l JOIN r ON l.k = r.k",
            lambda: _star_database(20),
        ),
        (
            "SELECT k FROM l WHERE k IN (SELECT k FROM r)",
            lambda: _star_database(20),
        ),
    ],
    ids=["join", "star-distinct", "in"],
)
def test_a_product_form_ask_reads_stored_confidences_by_ordinal(
    monkeypatch, count_calls, sql, database
):
    """The ``policy.confidence`` step of a product-form ask reads each
    factor column's stored confidences by ordinal off its table: no
    base-tuple set (``ColumnBatch.variables``), no ``TupleId``-keyed
    batch read (``Database.confidences``, which a snapshot shares) and no
    ``TupleId`` hashed.  At the parent commit the join ask (460 rows over
    510 base tuples) made one snapshot batch read, one ``variables`` call
    and 2 350 hashes — the set, the dict, a lookup per factor; the star
    DISTINCT ask (20 groups over 60 tuples) one read, 21 calls and 320
    hashes; the ``IN`` ask one read, 21 calls and 220 hashes."""
    session = _session(database())
    batch_reads = [
        count_calls(Database, "confidences"),
        count_calls(SnapshotDatabase, "confidences"),
    ]
    variables = count_calls(ColumnBatch, "variables")
    hashes, inside = [0], [False]
    hash_tuple = TupleId.__hash__

    def counted_hash(self):
        hashes[0] += inside[0]
        return hash_tuple(self)

    confidences = ResultSet.confidences

    def policy_confidence(self, source):
        inside[0] = True
        try:
            return confidences(self, source)
        finally:
            inside[0] = False

    monkeypatch.setattr(TupleId, "__hash__", counted_hash)
    monkeypatch.setattr(ResultSet, "confidences", policy_confidence)
    reply = session.ask(sql, 0.0)
    counts = [calls[0] for calls in batch_reads] + [variables[0], hashes[0]]
    monkeypatch.undo()
    session.close()
    assert len(reply.rows) + reply.withheld_count > 0
    assert not reply.raw_result.has_compiled_circuits
    assert counts == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "sql, database, compiles",
    [
        (JOIN, lambda: _database(60, 400), False),
        (
            "SELECT DISTINCT l.k FROM l JOIN r ON l.k = r.k",
            lambda: _star_database(20),
            False,
        ),
        (
            "SELECT k FROM l WHERE flag = 1 UNION SELECT k FROM r",
            lambda: _database(20, 20),
            True,
        ),
    ],
    ids=["product-join", "star-distinct", "compiled-union"],
)
@pytest.mark.parametrize("fraction", [0.0, 1.0], ids=["filter", "improve"])
def test_a_served_ask_never_calls_probability(
    count_calls, sql, database, compiles, fraction
):
    """``probability()`` compiles one formula into a pool of its own, for
    callers outside the engine: no ask calls it — nor
    ``AnnotatedTuple.confidence``, its one caller in the library — whether
    its rows are products, star groups or compiled circuits, and whether
    or not strategy finding runs."""
    session = _session(database())
    calls = [
        count_calls(rows_module, "probability"),
        count_calls(AnnotatedTuple, "confidence"),
    ]
    reply = session.ask(sql, fraction)
    session.close()
    assert len(reply.rows) + reply.withheld_count > 0
    assert reply.raw_result.has_compiled_circuits is compiles
    assert [count[0] for count in calls] == [0, 0]
