"""Overload management: load shedding, circuit breaker, idempotency LRU.

White-box tests against an un-started :class:`PCQEServer` (admission is
pure bookkeeping — no socket needed) plus the two helper classes with
injected clocks.
"""

from __future__ import annotations

import pytest

from repro.errors import ServerError
from repro.obs import get_metrics
from repro.policy import PolicyStore
from repro.server import PCQEServer, PRIORITY_CLASSES
from repro.server.server import _ConnectionBreaker, _KeyedLRU
from repro.storage import Database
from tests.error_codes import raises_code


@pytest.fixture()
def server():
    # Never started: _admit/_finish are plain thread-safe bookkeeping.
    return PCQEServer(Database("t"), PolicyStore(default_threshold=0.0))


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestLoadShedding:
    def test_asks_shed_first_at_two_times_workers(self, server):
        server._inflight = server.workers * 2
        try:
            with raises_code(ServerError, "OverloadError") as info:
                server._admit("ask", None)
        finally:
            server._inflight = 0
        error = info.value
        assert error.retryable
        assert error.details() == {
            "op": "ask",
            "priority": 0,
            "queue_depth": server.workers * 2,
            "limit": server.workers * 2,
        }

    def test_sql_survives_until_four_times_workers(self, server):
        server._inflight = server.workers * 2
        try:
            assert server._admit("sql", None) is None
            server._inflight = server.workers * 4
            with raises_code(ServerError, "OverloadError"):
                server._admit("sql", None)
        finally:
            server._inflight = 0

    def test_metrics_and_refresh_are_never_shed(self, server):
        server._inflight = server.workers * 100
        try:
            for op in ("metrics", "refresh"):
                assert server._admit(op, None) is None
                server._inflight = server.workers * 100
        finally:
            server._inflight = 0

    def test_priority_classes_order_sheds_ask_before_sql(self):
        assert PRIORITY_CLASSES["ask"] < PRIORITY_CLASSES["sql"]
        assert PRIORITY_CLASSES["sql"] < PRIORITY_CLASSES["metrics"]

    def test_shed_counter_moves(self, server):
        counter = get_metrics().counter("server.shed")
        before = counter.value
        server._inflight = server.workers * 2
        try:
            with raises_code(ServerError, "OverloadError"):
                server._admit("ask", None)
        finally:
            server._inflight = 0
        assert counter.value == before + 1

    def test_custom_multipliers_and_disabling(self):
        strict = PCQEServer(Database("t"), PolicyStore(default_threshold=0.0))
        strict.shed_multipliers = {0: 1.0}
        strict._inflight = strict.workers
        try:
            with raises_code(ServerError, "OverloadError"):
                strict._admit("ask", None)
            # sql has no entry in this map: never shed.
            assert strict._admit("sql", None) is None
        finally:
            strict._inflight = 0

    def test_draining_rejects_before_any_other_gate(self, server):
        server._draining = True
        try:
            with raises_code(ServerError, "ServerDrainingError") as info:
                server._admit("metrics", None)
        finally:
            server._draining = False
        assert info.value.retryable


class TestConnectionBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = _Clock()
        breaker = _ConnectionBreaker(3, 1.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow() == (True, 0.0)
        breaker.record_failure()
        assert breaker.state == "open"
        allowed, retry_after = breaker.allow()
        assert not allowed and retry_after == pytest.approx(1.0)
        breaker.discard()

    def test_success_resets_the_failure_streak(self):
        breaker = _ConnectionBreaker(3, 1.0, clock=_Clock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.discard()

    def test_half_open_probe_closes_on_success(self):
        clock = _Clock()
        breaker = _ConnectionBreaker(1, 2.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now = 2.5
        assert breaker.allow() == (True, 0.0)
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.discard()

    def test_half_open_probe_failure_reopens(self):
        clock = _Clock()
        breaker = _ConnectionBreaker(5, 1.0, clock=clock)
        for _ in range(5):
            breaker.record_failure()
        clock.now = 1.5
        breaker.allow()
        assert breaker.state == "half_open"
        breaker.record_failure()  # a single probe failure re-opens
        assert breaker.state == "open"
        assert breaker.opened_at == 1.5
        breaker.discard()

    def test_zero_threshold_disables_the_breaker(self):
        breaker = _ConnectionBreaker(0, 1.0, clock=_Clock())
        for _ in range(100):
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow() == (True, 0.0)

    def test_gauge_tracks_open_breakers_and_discard(self):
        gauge = get_metrics().gauge("server.breaker.open")
        base = gauge.value
        clock = _Clock()
        breaker = _ConnectionBreaker(1, 1.0, clock=clock)
        breaker.record_failure()
        assert gauge.value == base + 1
        # Connection teardown must not leave the gauge stuck high.
        breaker.discard()
        assert gauge.value == base

    def test_error_classification_over_the_gates(self):
        """``retryable`` is ``ServerError``'s class default (``False``)
        unless the raise site passes it; the gates pass ``True``."""
        assert not ServerError("x").retryable
        error = ServerError(
            "x", code="CircuitOpenError", retryable=True, failures=3,
            retry_after_ms=10.0,
        )
        assert error.retryable and error.code == "CircuitOpenError"
        assert "retryable" not in error.details()

    def test_structured_fields_are_declared_once_per_class(self):
        """The raise site's keywords are the fields: each one an attribute
        and, in the order given, an entry of the wire ``details()``;
        ``code`` names the condition and is no field."""
        error = ServerError(
            "x", code="RequestTimeoutError", op="ask", timeout_ms=50.0
        )
        assert (error.op, error.timeout_ms) == ("ask", 50.0)
        assert list(error.details().items()) == [
            ("op", "ask"), ("timeout_ms", 50.0)
        ]
        assert error.code == "RequestTimeoutError"
        assert ServerError("x").details() == {}
        assert ServerError("x").code == "ServerError"
        rotating = ServerError(
            "x", code="NotPrimaryError", rotate=True, role="replica", epoch=3
        )
        assert list(rotating.details().items()) == [
            ("rotate", True), ("role", "replica"), ("epoch", 3)
        ]


class TestIdempotencyCache:
    def test_lru_evicts_the_oldest_entry(self):
        cache = _KeyedLRU(2)
        cache.put(("c", "a"), 1)
        cache.put(("c", "b"), 2)
        cache.put(("c", "c"), 3)
        assert cache.get(("c", "a")) is None
        assert cache.get(("c", "b")) == 2
        assert len(cache) == 2

    def test_get_refreshes_recency(self):
        cache = _KeyedLRU(2)
        cache.put(("c", "a"), 1)
        cache.put(("c", "b"), 2)
        cache.get(("c", "a"))  # a is now the most recent
        cache.put(("c", "c"), 3)
        assert cache.get(("c", "a")) == 1
        assert cache.get(("c", "b")) is None

    def test_keys_are_scoped_per_client(self):
        cache = _KeyedLRU(8)
        cache.put(("alice", "k"), "hers")
        cache.put(("bob", "k"), "his")
        assert cache.get(("alice", "k")) == "hers"
        assert cache.get(("bob", "k")) == "his"

    def test_drop_is_idempotent(self):
        cache = _KeyedLRU(8)
        cache.put(("c", "k"), 1)
        cache.drop(("c", "k"))
        cache.drop(("c", "k"))
        assert cache.get(("c", "k")) is None
        assert len(cache) == 0
