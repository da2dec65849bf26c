"""Property tests for replication: log reconciliation and read-your-writes.

Two families of laws:

* **Log divergence** — for any shared history with forked tails, digest
  reconciliation finds exactly the fork point; truncating the replica to
  the common prefix and replaying the primary's frames always converges
  to a digest-identical log (the truncate-and-resync contract).
* **Read-your-writes** — a session that demands ``min_seq`` never
  observes a snapshot older than it, across arbitrary interleavings of
  commits, stale pins, and lag checks; a demand beyond the node's
  position raises instead of lying, leaving the pin untouched.
* **Row-set records** — any interleaving of multi-row UPDATEs (with and
  without a confidence, over any column, matching no row, or rejected by
  the schema), multi-row INSERTs, range DELETEs,
  write-backs, bulk re-scoring, single-row operations and crash-reopens
  leaves the live primary, its published snapshot, its recovered log and
  a replica fed the same frames with equal fingerprints, every
  delta-published snapshot table equal to a from-scratch copy, and its
  and the live table's ``lookup`` (a key map read) equal to the scan.
* **A refused statement writes nothing** — after every rejected step (an
  UPDATE or an INSERT with a bad row at a drawn position, a CREATE VIEW
  that does not plan) fingerprints, ``last_seq``, every table's
  ``data_version`` and the catalog are what they were before it: on the
  primary at once, on the replica after catch-up, after a crash + recover.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import LinearCost
from repro.errors import ReproError, ServerError
from repro.policy import PolicyStore
from repro.server import Replica
from repro.server.mvcc import MVCCDatabase, SnapshotTable
from repro.server.replication.reconcile import divergence_point
from repro.server.session import Session
from repro.sql import execute_dml, parse_command
from repro.storage import Database
from repro.storage.durability import database_fingerprints, recover
from repro.storage.durability.checksum import crc32c
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, REAL, TEXT
from tests.error_codes import raises_code

# -- log divergence ---------------------------------------------------------

# Tag the two suffixes so a fork, when present, really differs at its
# first frame (the tags never collide with each other or the prefix).
_prefix_frames = st.lists(
    st.binary(min_size=1, max_size=8).map(lambda b: b"S" + b),
    max_size=20,
)
_primary_suffix = st.lists(
    st.binary(min_size=1, max_size=8).map(lambda b: b"P" + b),
    max_size=10,
)
_fork_suffix = st.lists(
    st.binary(min_size=1, max_size=8).map(lambda b: b"F" + b),
    max_size=10,
)


def _log(payloads: "list[bytes]") -> "list[tuple[int, bytes]]":
    return [(seq, payload) for seq, payload in enumerate(payloads, start=1)]


def _digests(log: "list[tuple[int, bytes]]") -> "list[tuple[int, int]]":
    return [(seq, crc32c(payload)) for seq, payload in log]


class TestLogDivergence:
    @given(prefix=_prefix_frames, primary=_primary_suffix, fork=_fork_suffix)
    @settings(max_examples=100, deadline=None)
    def test_reconciliation_finds_exactly_the_fork(self, prefix, primary, fork):
        primary_log = _log(prefix + primary)
        replica_log = _log(prefix + fork)
        local = _digests(replica_log)
        remote = _digests(primary_log)
        if fork and primary:
            # Both histories continue past the prefix, differently: the
            # first post-prefix frame is the divergence point.
            assert divergence_point(local, remote) == len(prefix) + 1
        else:
            # One side simply ends: behind, not diverged.
            assert divergence_point(local, remote) is None

    @given(prefix=_prefix_frames, primary=_primary_suffix, fork=_fork_suffix)
    @settings(max_examples=100, deadline=None)
    def test_truncate_and_resync_always_converges(self, prefix, primary, fork):
        primary_log = _log(prefix + primary)
        replica_log = _log(prefix + fork)
        remote = _digests(primary_log)
        point = divergence_point(_digests(replica_log), remote)
        # The logs agree up to the divergence point, or over their shared
        # range when there is none.
        common = (
            min(len(replica_log), len(primary_log)) if point is None else point - 1
        )
        # The resync contract: drop everything past the common prefix,
        # then replay the primary's frames from there.
        converged = [
            frame for frame in replica_log if frame[0] <= common
        ] + [frame for frame in primary_log if frame[0] > common]
        assert converged == primary_log
        assert divergence_point(_digests(converged), remote) is None

    @given(payloads=_prefix_frames)
    @settings(max_examples=50, deadline=None)
    def test_a_log_never_diverges_from_itself(self, payloads):
        digests = _digests(_log(payloads))
        assert divergence_point(digests, digests) is None


# -- read-your-writes -------------------------------------------------------


def _policies() -> PolicyStore:
    policies = PolicyStore(default_threshold=0.0)
    policies.add_role("Manager")
    policies.add_purpose("ops")
    policies.add_user("bob", roles=["Manager"])
    policies.add_policy("Manager", "ops", 0.0)
    return policies


# An interleaving: commits (True) and read-your-writes checks (a float
# in [0, 1] picking which past write the reading client demands).
_interleavings = st.lists(
    st.one_of(st.just(True), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1,
    max_size=30,
)


class TestReadYourWrites:
    @given(actions=_interleavings)
    @settings(max_examples=100, deadline=None)
    def test_a_session_never_observes_a_snapshot_older_than_min_seq(
        self, actions
    ):
        db = Database("ryw")
        db.create_table("t", Schema.of(("name", TEXT)))
        mvcc = MVCCDatabase(db)
        policies = _policies()
        session = Session(mvcc, policies, "bob", "ops")
        base_seq = mvcc.current_seq  # no rows exist at or before this
        try:
            for action in actions:
                if action is True:

                    def mutate(state):
                        state.table("t").insert(["row"], confidence=0.5)

                    mvcc.commit(mutate)
                    continue
                # A client that wrote at some past seq demands it here.
                current = mvcc.current_seq
                min_seq = base_seq + round(action * (current - base_seq))
                observed = session.ensure_seq(min_seq)
                assert observed == session.seq
                assert session.seq >= min_seq
                # The snapshot really contains every row up to min_seq.
                visible = len(session._snapshot().db.table("t"))
                assert visible >= min_seq - base_seq
        finally:
            session.close()

    @given(commits=st.integers(min_value=0, max_value=5),
           beyond=st.integers(min_value=1, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_a_demand_beyond_the_position_raises_instead_of_lying(
        self, commits, beyond
    ):
        db = Database("lag")
        db.create_table("t", Schema.of(("name", TEXT)))
        mvcc = MVCCDatabase(db)
        session = Session(mvcc, _policies(), "bob", "ops")
        try:
            for _ in range(commits):
                mvcc.commit(
                    lambda state: state.table("t").insert(
                        ["row"], confidence=0.5
                    )
                )
            pinned = session.seq
            with raises_code(ServerError, "ReplicaLagError") as excinfo:
                session.ensure_seq(mvcc.current_seq + beyond)
            assert excinfo.value.position == mvcc.current_seq
            # The failed demand left the pin exactly where it was.
            assert session.seq == pinned
        finally:
            session.close()

    @given(commits=st.integers(min_value=1, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_waiting_for_a_seq_that_arrives_succeeds(self, commits):
        import threading

        db = Database("wait")
        db.create_table("t", Schema.of(("name", TEXT)))
        mvcc = MVCCDatabase(db)
        session = Session(mvcc, _policies(), "bob", "ops")
        target = mvcc.current_seq + commits
        try:
            def writer():
                for _ in range(commits):
                    mvcc.commit(
                        lambda state: state.table("t").insert(
                            ["row"], confidence=0.5
                        )
                    )

            thread = threading.Thread(target=writer)
            thread.start()
            assert session.ensure_seq(target, wait_s=5.0) >= target
            thread.join()
        finally:
            session.close()


# -- row-set records ----------------------------------------------------------

_ROW_SCHEMA = Schema(
    [
        Column("k", INTEGER, nullable=False),
        Column("name", TEXT),
        Column("v", REAL),
    ]
)
_TABLES = ("t", "u")
_ASSIGNMENTS = {
    "k": "k = k + 1",
    "name": "name = 'renamed'",
    "v": "v = v * 2 + k",
}
_bounds = st.integers(-1, 9)
_row_confidences = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])
_positions = st.integers(0, 1000)

_row_steps = st.one_of(
    st.tuples(
        st.just("update"),
        st.sampled_from(_TABLES),
        _bounds,
        _bounds,  # lo >= hi: no row matches
        st.lists(
            st.sampled_from(sorted(_ASSIGNMENTS)), min_size=1, unique=True
        ),
        st.one_of(st.none(), _row_confidences),
    ),
    st.tuples(st.just("rejected"), st.sampled_from(_TABLES), _bounds),
    st.tuples(
        st.just("insert"),
        st.sampled_from(_TABLES),
        st.integers(1, 5),
        st.one_of(st.none(), _row_confidences),
    ),
    st.tuples(
        st.just("rejected_insert"),
        st.sampled_from(_TABLES),
        st.integers(1, 5),
        _positions,  # where among the rows the bad one sits
        st.sampled_from(["(NULL, 'bad', 1.0)", "(1, 'bad', 'zzz')", "(1)"]),
    ),
    st.tuples(st.just("delete"), st.sampled_from(_TABLES), _bounds, _bounds),
    st.tuples(
        st.just("rejected_view"),
        st.sampled_from(["SELECT nope FROM t", "SELECT k FROM v"]),
    ),
    st.tuples(
        st.just("write_back"),
        st.lists(
            st.tuples(st.sampled_from(_TABLES), _positions, _row_confidences),
            max_size=6,
        ),
    ),
    st.tuples(st.just("assign"), st.sampled_from(_TABLES), _row_confidences),
    st.tuples(
        st.just("single"),
        st.sampled_from(["insert", "update", "delete", "set_confidence"]),
        st.sampled_from(_TABLES),
        _positions,
    ),
    st.tuples(st.just("crash")),
)


def _row_state(table) -> list:
    return [
        (row.tid, row.values, row.confidence, row.cost_model)
        for row in table.scan()
    ]


def _run_row_step(db: Database, step: tuple) -> None:
    kind, *args = step
    if kind == "update":
        name, lo, hi, columns, confidence = args
        sql = (
            f"UPDATE {name} SET "
            + ", ".join(_ASSIGNMENTS[column] for column in columns)
            + f" WHERE k >= {lo} AND k < {hi}"
        )
        if confidence is not None:
            sql += f" WITH CONFIDENCE {confidence}"
        execute_dml(db, parse_command(sql))
    elif kind == "rejected":
        name, lo = args
        execute_dml(
            db,
            parse_command(
                f"UPDATE {name} SET v = v + 1, "
                f"k = CASE WHEN k >= {lo} THEN NULL ELSE k END"
            ),
        )
    elif kind in ("insert", "rejected_insert"):
        name, count, *bad = args
        rows = [f"({i}, 'new{i}', {i}.5)" for i in range(count)]
        sql = f"INSERT INTO {name} VALUES "
        if kind == "insert":
            if bad[0] is not None:
                rows[-1] += f" WITH CONFIDENCE {bad[0]}"
        else:
            position, row = bad
            rows.insert(position % (count + 1), row)
        execute_dml(db, parse_command(sql + ", ".join(rows)))
    elif kind == "delete":
        name, lo, hi = args
        execute_dml(
            db, parse_command(f"DELETE FROM {name} WHERE k >= {lo} AND k < {hi}")
        )
    elif kind == "rejected_view":
        execute_dml(db, parse_command(f"CREATE VIEW v AS {args[0]}"))
    elif kind == "write_back":
        updates = {}
        for name, position, confidence in args[0]:
            rows = list(db.table(name).scan())
            if rows:
                updates[rows[position % len(rows)].tid] = confidence
        db.apply_confidences(updates)
    elif kind == "assign":
        name, confidence = args
        db.table(name).assign_confidences(lambda row: confidence)
    else:
        assert kind == "single"
        action, name, position = args
        table = db.table(name)
        rows = list(table.scan())
        if action == "insert" or not rows:
            table.insert(
                [position % 10, "fresh", 0.5],
                confidence=0.5,
                cost_model=LinearCost(2.0),
            )
            return
        row = rows[position % len(rows)]
        if action == "update":
            table.update(row.tid, [position % 10, None, 1.5])
        elif action == "delete":
            table.delete(row.tid)
        else:
            table.set_confidence(row.tid, 0.75)


def _written_state(db: Database, last_seq: int) -> tuple:
    """Everything a refused statement must leave as it was (the first
    three survive a restart; versions count from zero again)."""
    return (
        database_fingerprints(db),
        last_seq,
        (db.table_names(), db.view_names()),
        {table.name: table.data_version for table in db.tables()},
    )


class _Primary:
    def __init__(self, data_dir: str, frames: list) -> None:
        self.data_dir = data_dir
        self.frames = frames
        self.open()

    def open(self) -> None:
        self.db = Database.open(self.data_dir, sync=False)
        self.mvcc = MVCCDatabase(self.db)
        self.db._durability.add_commit_listener(
            lambda seq, payload: self.frames.append((seq, payload))
        )

    def crash(self) -> None:
        """Close, recover the log into a fresh database, compare, reopen."""
        live = database_fingerprints(self.db)
        catalog = (self.db.table_names(), self.db.view_names())
        last_seq = self.db._durability.last_seq
        self.db.close()
        recovered, report = recover(self.data_dir)
        assert database_fingerprints(recovered) == live
        assert (recovered.table_names(), recovered.view_names()) == catalog
        assert report.last_seq == last_seq
        self.open()


class TestRowSetRecords:
    @given(steps=st.lists(_row_steps, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_live_snapshot_recovered_and_replica_state_agree(
        self, tmp_path_factory, steps
    ):
        root = tmp_path_factory.mktemp("rowsets")
        frames: "list[tuple[int, bytes]]" = []
        primary = _Primary(str(root / "primary"), frames)
        replica = Replica(
            ["127.0.0.1:1"], _policies(), data_dir=str(root / "replica")
        )
        shipped = 0
        try:
            def seed(db):
                for name in _TABLES:
                    table = db.create_table(name, _ROW_SCHEMA)
                    for i in range(8):
                        table.insert(
                            [i, f"row{i}", float(i)],
                            confidence=0.5,
                            cost_model=LinearCost(2.0),
                        )

            def ship() -> int:
                nonlocal shipped
                fresh, shipped = frames[shipped:], len(frames)
                for seq, payload in fresh:
                    replica._apply_frame(seq, payload)
                return len(fresh)

            primary.mvcc.commit(seed)
            ship()
            for step in steps:
                rejected = False
                if step[0] == "crash":
                    primary.crash()
                else:
                    before = _written_state(
                        primary.db, primary.db._durability.last_seq
                    )
                    replica_before = _written_state(replica._db, replica.position)
                    try:
                        primary.mvcc.commit(lambda db: _run_row_step(db, step))
                    except ReproError:
                        rejected = True
                    # (A "rejected" UPDATE passes when no k reaches its bound.)
                    assert rejected <= step[0].startswith("rejected")
                    assert rejected or step[0] not in (
                        "rejected_insert", "rejected_view"
                    )
                sent = ship()
                if rejected:
                    assert sent == 0
                    assert before == _written_state(
                        primary.db, primary.db._durability.last_seq
                    )
                    assert replica_before == _written_state(
                        replica._db, replica.position
                    )
                    primary.crash()  # recovers to the same fingerprints and seq
                    assert before[:3] == _written_state(
                        primary.db, primary.db._durability.last_seq
                    )[:3]

                live = database_fingerprints(primary.db)
                assert database_fingerprints(replica._db) == live
                for mvcc, db in (
                    (primary.mvcc, primary.db),
                    (replica.server.mvcc, replica._db),
                ):
                    with mvcc.snapshot() as snapshot:
                        assert database_fingerprints(snapshot.db) == live
                        for name in _TABLES:
                            published = snapshot.db.table(name)
                            reference = SnapshotTable(db.clone().table(name))
                            assert _row_state(published) == _row_state(reference)
                            assert (
                                published.column_data()
                                == reference.column_data()
                            )
                            # The published and the live key map followed
                            # every assigned value, in scan order, on the
                            # primary and on the replica.
                            for table in (published, db.table(name)):
                                for value in ("renamed", "fresh", "row3", None):
                                    assert [
                                        row.tid
                                        for row in table.lookup("name", value)
                                    ] == [
                                        row.tid
                                        for row in table.scan()
                                        if row.values[1] == value
                                    ]
                assert replica.position == primary.db._durability.last_seq
        finally:
            replica.stop()
            primary.db.close()
