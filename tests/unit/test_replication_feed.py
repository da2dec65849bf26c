"""The primary's replication feed, log reconciliation, and epochs."""

from __future__ import annotations

import threading

import pytest

from repro.server.replication.epoch import EPOCH_FILE, load_epoch, store_epoch
from repro.server.replication.feed import MAX_RETAINED_BYTES, ReplicationFeed
from repro.server.replication.reconcile import divergence_point
from repro.storage.durability import iter_idempotency_markers
from repro.storage.durability.checksum import crc32c


def _fill(feed: ReplicationFeed, count: int, start: int = 1) -> None:
    for seq in range(start, start + count):
        feed.append(seq, f"frame-{seq}".encode())


class TestReplicationFeed:
    def test_frames_since_returns_the_suffix_in_order(self):
        feed = ReplicationFeed()
        _fill(feed, 5)
        frames = feed.frames_since(2, max_frames=10)
        assert [seq for seq, _ in frames] == [3, 4, 5]
        assert frames[0][1] == b"frame-3"

    def test_max_frames_bounds_one_pull(self):
        feed = ReplicationFeed()
        _fill(feed, 10)
        frames = feed.frames_since(0, max_frames=3)
        assert [seq for seq, _ in frames] == [1, 2, 3]

    def test_caught_up_pull_returns_empty(self):
        feed = ReplicationFeed()
        _fill(feed, 3)
        assert feed.frames_since(3, max_frames=10) == []

    def test_full_window_caught_up_and_lagging_pullers(self):
        feed = ReplicationFeed(capacity=64)
        _fill(feed, 200)  # wrapped several times: window is (136, 200]
        assert len(feed) == 64 and feed.base == 136
        assert feed.frames_since(200, max_frames=256) == []
        assert [s for s, _ in feed.frames_since(199, max_frames=256)] == [200]
        assert [s for s, _ in feed.frames_since(136, max_frames=3)] == [
            137,
            138,
            139,
        ]
        assert len(feed.frames_since(136, max_frames=256)) == 64

    def test_eviction_below_window_forces_resync(self):
        feed = ReplicationFeed(capacity=3)
        _fill(feed, 10)  # window is now (7, 10]
        assert feed.base == 7
        assert feed.frames_since(6, max_frames=10) is None
        assert [s for s, _ in feed.frames_since(7, max_frames=10)] == [
            8,
            9,
            10,
        ]

    def test_window_is_bounded_by_retained_bytes_too(self):
        # Write-back frames are tens of KiB: far below the frame capacity
        # the window must already stop growing.
        frame = bytes(64 * 1024)
        budget = MAX_RETAINED_BYTES // len(frame)
        feed = ReplicationFeed()
        lengths = []
        for seq in range(1, 3 * budget + 1):
            feed.append(seq, frame)
            lengths.append(len(feed))
        assert max(lengths) == budget == lengths[-1]  # plateau, not growth
        assert lengths[:budget] == list(range(1, budget + 1))
        assert feed.base == 2 * budget and feed.last_seq == 3 * budget
        # A caught-up puller and one just inside the window are unaffected;
        # one below the floor is told to resync from a snapshot.
        assert feed.frames_since(3 * budget, max_frames=8) == []
        assert [s for s, _ in feed.frames_since(3 * budget - 2, 8)] == [
            3 * budget - 1,
            3 * budget,
        ]
        assert len(feed.frames_since(feed.base, max_frames=10**6)) == budget
        assert feed.frames_since(feed.base - 1, max_frames=8) is None
        assert feed.digests(feed.base - 1, 3 * budget) is None

    def test_a_frame_larger_than_the_byte_budget_is_kept_and_served(self):
        feed = ReplicationFeed()
        _fill(feed, 3)
        huge = bytes(MAX_RETAINED_BYTES + 1)
        feed.append(4, huge)
        assert len(feed) == 1 and feed.base == 3
        assert feed.frames_since(3, max_frames=8) == [(4, huge)]
        assert feed.frames_since(2, max_frames=8) is None
        feed.append(5, b"small")  # the oversized frame goes first
        assert feed.frames_since(4, max_frames=8) == [(5, b"small")] and feed.base == 4

    def test_duplicate_appends_are_ignored(self):
        feed = ReplicationFeed()
        _fill(feed, 3)
        feed.append(3, b"frame-3")  # duplicate notification
        feed.append(2, b"frame-2")
        assert len(feed) == 3
        assert feed.last_seq == 3

    def test_set_position_anchors_an_empty_feed_only(self):
        feed = ReplicationFeed()
        feed.set_position(41)
        assert feed.base == 41
        assert feed.frames_since(40, max_frames=5) is None  # below window
        feed.append(42, b"f")
        feed.set_position(0)  # non-empty: no-op
        assert feed.base == 41

    def test_long_poll_wakes_on_arrival(self):
        feed = ReplicationFeed()
        _fill(feed, 2)
        results: list = []

        def puller():
            results.append(feed.frames_since(2, max_frames=5, wait_s=5.0))

        thread = threading.Thread(target=puller)
        thread.start()
        feed.append(3, b"frame-3")
        thread.join(timeout=5.0)
        assert results and [s for s, _ in results[0]] == [3]

    def test_digests_cover_the_requested_range(self):
        feed = ReplicationFeed()
        _fill(feed, 5)
        digests = feed.digests(1, 4)
        assert digests == [
            (seq, crc32c(f"frame-{seq}".encode())) for seq in (2, 3, 4)
        ]

    def test_digests_below_window_force_resync(self):
        feed = ReplicationFeed(capacity=2)
        _fill(feed, 6)
        assert feed.digests(1, 6) is None


class TestIdempotencyMarkers:
    def test_top_level_marker(self):
        op = {"op": "idempotency", "client": "c1", "key": "k1"}
        assert list(iter_idempotency_markers(op)) == [("c1", "k1")]

    def test_markers_nested_in_batches(self):
        op = {
            "op": "batch",
            "ops": [
                {"op": "insert", "table": "t"},
                {"op": "idempotency", "client": "c1", "key": "k1"},
                {
                    "op": "batch",
                    "ops": [
                        {"op": "idempotency", "client": "c2", "key": "k2"}
                    ],
                },
            ],
        }
        assert list(iter_idempotency_markers(op)) == [
            ("c1", "k1"),
            ("c2", "k2"),
        ]

    def test_malformed_markers_are_skipped(self):
        assert list(iter_idempotency_markers({"op": "idempotency"})) == []
        assert list(iter_idempotency_markers({"op": "insert"})) == []


def _digests(frames):
    return [(seq, crc32c(payload)) for seq, payload in frames]


class TestReconcile:
    def test_identical_logs_agree_to_the_end(self):
        digests = _digests([(s, f"f{s}".encode()) for s in range(1, 6)])
        assert divergence_point(digests, digests) is None

    def test_shorter_log_is_behind_not_divergent(self):
        frames = [(s, f"f{s}".encode()) for s in range(1, 6)]
        assert divergence_point(_digests(frames[:3]), _digests(frames)) is None

    def test_forked_tail_is_found(self):
        shared = [(s, f"f{s}".encode()) for s in range(1, 4)]
        local = _digests(shared + [(4, b"local-4"), (5, b"local-5")])
        remote = _digests(shared + [(4, b"remote-4")])
        assert divergence_point(local, remote) == 4

    def test_disagreement_from_the_first_frame(self):
        local = _digests([(1, b"a")])
        remote = _digests([(1, b"b")])
        assert divergence_point(local, remote) == 1


class TestEpochPersistence:
    def test_round_trip(self, tmp_path):
        store_epoch(str(tmp_path), 7)
        assert load_epoch(str(tmp_path)) == 7
        assert (tmp_path / EPOCH_FILE).exists()

    def test_missing_file_yields_the_default(self, tmp_path):
        assert load_epoch(str(tmp_path)) == 1
        assert load_epoch(str(tmp_path), default=5) == 5

    def test_garbage_yields_the_default(self, tmp_path):
        (tmp_path / EPOCH_FILE).write_text("not-a-number\n")
        assert load_epoch(str(tmp_path)) == 1

    def test_default_floors_a_lower_persisted_epoch(self, tmp_path):
        store_epoch(str(tmp_path), 2)
        assert load_epoch(str(tmp_path), default=9) == 9
