"""Unit tests for provenance-based confidence assignment."""

import pytest

from repro.errors import ReproError
from repro.storage import Database, Schema, TEXT
from repro.trust import (
    CollectionMethod,
    ConfidenceAssigner,
    DataSource,
    ProvenanceRecord,
)
from tests.error_codes import raises_code


@pytest.fixture
def sources():
    return {
        "gov": DataSource("census-bureau", trust=0.9),
        "blog": DataSource("random-blog", trust=0.2),
        "vendor": DataSource("data-vendor", trust=0.6),
    }


@pytest.fixture
def methods():
    return {
        "api": CollectionMethod("automated-feed", reliability=0.95),
        "manual": CollectionMethod("manual-entry", reliability=0.6),
    }


class TestModels:
    def test_trust_validated(self):
        with raises_code(ReproError, "ProvenanceError"):
            DataSource("x", trust=1.2)

    def test_reliability_validated(self):
        with raises_code(ReproError, "ProvenanceError"):
            CollectionMethod("x", reliability=-0.1)

    def test_empty_names_rejected(self):
        with raises_code(ReproError, "ProvenanceError"):
            DataSource("", 0.5)
        with raises_code(ReproError, "ProvenanceError"):
            CollectionMethod("", 0.5)

    def test_negative_age_rejected(self, sources, methods):
        with raises_code(ReproError, "ProvenanceError"):
            ProvenanceRecord(sources["gov"], methods["api"], age_days=-1)


class TestScoring:
    def test_single_source(self, sources, methods):
        assigner = ConfidenceAssigner(half_life_days=None)
        record = ProvenanceRecord(sources["gov"], methods["api"])
        assert assigner.score(record) == pytest.approx(0.9 * 0.95)

    def test_corroboration_raises_confidence(self, sources, methods):
        assigner = ConfidenceAssigner(half_life_days=None)
        alone = ProvenanceRecord(sources["blog"], methods["api"])
        backed = ProvenanceRecord(
            sources["blog"], methods["api"], corroborations=(sources["vendor"],)
        )
        assert assigner.score(backed) > assigner.score(alone)

    def test_corroboration_is_noisy_or(self, sources, methods):
        assigner = ConfidenceAssigner(half_life_days=None)
        record = ProvenanceRecord(
            sources["blog"], methods["api"], corroborations=(sources["vendor"],)
        )
        rel = 0.95
        expected = 1 - (1 - 0.2 * rel) * (1 - 0.6 * rel)
        assert assigner.score(record) == pytest.approx(expected)

    def test_age_decay(self, sources, methods):
        assigner = ConfidenceAssigner(half_life_days=100.0, decay=0.5)
        fresh = ProvenanceRecord(sources["gov"], methods["api"], age_days=0)
        stale = ProvenanceRecord(sources["gov"], methods["api"], age_days=100)
        assert assigner.score(stale) == pytest.approx(assigner.score(fresh) / 2)

    def test_floor(self, sources, methods):
        assigner = ConfidenceAssigner(floor=0.05, half_life_days=1.0)
        ancient = ProvenanceRecord(sources["blog"], methods["manual"], age_days=10_000)
        assert assigner.score(ancient) == 0.05

    def test_never_exceeds_one(self, methods):
        assigner = ConfidenceAssigner(half_life_days=None)
        perfect = DataSource("oracle", 1.0)
        record = ProvenanceRecord(
            perfect, CollectionMethod("m", 1.0), corroborations=(perfect, perfect)
        )
        assert assigner.score(record) == 1.0

    def test_invalid_parameters(self):
        with raises_code(ReproError, "ProvenanceError"):
            ConfidenceAssigner(half_life_days=0.0)
        with raises_code(ReproError, "ProvenanceError"):
            ConfidenceAssigner(decay=0.0)
        with raises_code(ReproError, "ProvenanceError"):
            ConfidenceAssigner(floor=2.0)


class TestAssignToTable:
    def test_assigns_and_respects_caps(self, sources, methods):
        from repro.cost import LinearCost

        db = Database()
        table = db.create_table("t", Schema.of(("x", TEXT)))
        capped = table.insert(
            ["a"], confidence=0.1, cost_model=LinearCost(1.0, max_confidence=0.5)
        )
        free = table.insert(["b"], confidence=0.1)
        assigner = ConfidenceAssigner(half_life_days=None)
        record = ProvenanceRecord(sources["gov"], methods["api"])  # 0.855
        applied = assigner.assign(
            table, {capped: record, free: record}
        )
        assert applied[capped] == 0.5  # clamped to the cost model's cap
        assert applied[free] == pytest.approx(0.855)

    def test_a_table_is_scored_as_one_mutation_or_not_at_all(
        self, sources, methods, tmp_path
    ):
        """Every row used to be its own ``set_confidence``: one WAL record
        and one fsync per row, and a ``score`` that raised half-way left
        the rows before it re-scored."""
        db = Database.open(str(tmp_path))
        try:
            table = db.create_table("t", Schema.of(("x", TEXT)))
            tids = [table.insert([name], confidence=0.1) for name in "abcd"]
            record = ProvenanceRecord(sources["gov"], methods["api"])
            assigner = ConfidenceAssigner(half_life_days=None)
            last_seq, version = db._durability.last_seq, table.data_version

            with pytest.raises(AttributeError):  # the third record cannot score
                assigner.assign(table, {tids[0]: record, tids[1]: record, tids[2]: object()})
            assert [row.confidence for row in table.scan()] == [0.1] * 4
            assert (db._durability.last_seq, table.data_version) == (last_seq, version)

            applied = assigner.assign(table, dict.fromkeys(tids[:3], record))
            assert list(applied) == tids[:3]
            assert [row.confidence for row in table.scan()] == [
                pytest.approx(0.855)
            ] * 3 + [0.1]
            assert (db._durability.last_seq, table.data_version) == (
                last_seq + 1, version + 1,
            )
        finally:
            db.close()

    def test_missing_records_keep_confidence(self, sources, methods):
        db = Database()
        table = db.create_table("t", Schema.of(("x", TEXT)))
        tid = table.insert(["a"], confidence=0.33)
        assigner = ConfidenceAssigner()
        applied = assigner.assign(table, {})
        assert applied == {}
        assert table.confidence_of(tid) == 0.33

    def test_default_record_used(self, sources, methods):
        db = Database()
        table = db.create_table("t", Schema.of(("x", TEXT)))
        table.insert(["a"], confidence=0.9)
        assigner = ConfidenceAssigner(half_life_days=None)
        default = ProvenanceRecord(sources["blog"], methods["manual"])
        applied = assigner.assign(table, {}, default=default)
        assert len(applied) == 1
        assert list(applied.values())[0] == pytest.approx(0.2 * 0.6)
