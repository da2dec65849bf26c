"""Property-based tests for EWMA admission under adversarial arrivals.

The admission controller projects queue wait as ``inflight * ewma /
workers`` and rejects when the projection alone blows the deadline.
Three properties pin its behavior under hostile traffic:

* the EWMA is always bounded by the observed service-time range — no
  sequence of completions can push the estimate outside what was seen;
* a burst of arrivals is monotone: once one request is rejected, every
  later arrival of the burst (at equal or greater depth) is rejected
  too — no lucky late admissions behind a queue that already failed;
* a single pathological slow request skews the estimate enough to shed
  tight-deadline work, and a run of fast completions *recovers* it —
  the controller never wedges open after one outlier.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ServerError
from repro.policy import PolicyStore
from repro.server import PCQEServer
from repro.storage import Database

_EPS = 1e-9

service_times = st.lists(
    st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=32,
)


def _server(shed_multipliers=None) -> PCQEServer:
    # Never started: _admit/_finish need no socket or event loop.
    server = PCQEServer(Database("t"), PolicyStore(default_threshold=0.0))
    if shed_multipliers is not None:
        server.shed_multipliers = shed_multipliers
    return server


def _complete(server: PCQEServer, elapsed: float) -> None:
    """One request finishing: _finish pairs with an earlier admit."""
    server._inflight += 1
    server._finish(elapsed)


def _try_admit(server: PCQEServer, deadline_ms: float) -> bool:
    try:
        server._admit("ask", deadline_ms)
    except ServerError as error:
        if error.code != "AdmissionError":
            raise
        return False
    server._inflight -= 1  # undo the admit's slot for the next probe
    return True


class TestEwmaBounds:
    @given(samples=service_times)
    @settings(max_examples=60, deadline=None)
    def test_estimate_stays_within_the_observed_range(self, samples):
        server = _server()
        for elapsed in samples:
            _complete(server, elapsed)
            assert (
                min(samples) - _EPS
                <= server._service_ewma
                <= max(samples) + _EPS
            )

    @given(samples=service_times)
    @settings(max_examples=60, deadline=None)
    def test_order_of_magnitude_follows_the_recent_past(self, samples):
        # After the first completion the estimate is exactly that sample
        # (the EWMA self-seeds rather than averaging against zero).
        server = _server()
        _complete(server, samples[0])
        assert server._service_ewma == samples[0]


class TestBurstyArrivals:
    @given(
        ewma=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        deadline_ms=st.floats(min_value=10.0, max_value=2000.0),
        burst=st.integers(min_value=1, max_value=48),
    )
    @settings(max_examples=60, deadline=None)
    def test_rejections_are_monotone_across_a_burst(
        self, ewma, deadline_ms, burst
    ):
        server = _server(shed_multipliers={})  # isolate the deadline gate
        server._service_ewma = ewma
        # Keep every arrival off the decision boundary (within 2 ms the
        # admit-time clock read could flip it either way).
        for depth in range(burst):
            projected_ms = depth * ewma / server.workers * 1000.0
            assume(abs(projected_ms - deadline_ms) > 2.0)
        admitted_after_rejection = False
        rejected = False
        for _ in range(burst):
            try:
                server._admit("ask", deadline_ms)  # admits hold their slot
                if rejected:
                    admitted_after_rejection = True
            except ServerError as error:
                if error.code != "AdmissionError":
                    raise
                rejected = True
        assert not admitted_after_rejection

    @given(
        ewma=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        deadline_ms=st.floats(min_value=10.0, max_value=2000.0),
        depth=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=80, deadline=None)
    def test_gate_matches_the_analytic_projection(
        self, ewma, deadline_ms, depth
    ):
        server = _server(shed_multipliers={})
        server._service_ewma = ewma
        server._inflight = depth
        projected_ms = depth * ewma / server.workers * 1000.0
        admitted = _try_admit(server, deadline_ms)
        if projected_ms > deadline_ms:
            assert not admitted
        elif projected_ms < deadline_ms - 50.0:
            # Far from the boundary the µs-scale admit overhead cannot
            # flip the verdict; in between, either outcome is legal.
            assert admitted


class TestSkewAndRecovery:
    @given(
        fast=st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
        slow=st.floats(min_value=5.0, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_slow_request_sheds_then_fast_traffic_recovers(
        self, fast, slow
    ):
        server = _server()
        _complete(server, fast)  # healthy steady state
        deadline_ms = 8.0 * fast * 1000.0

        # With a full pool ahead, the healthy estimate admits easily.
        server._inflight = server.workers
        assert _try_admit(server, deadline_ms)

        # One pathological request skews the EWMA far above the deadline.
        server._inflight = 0
        _complete(server, slow)
        assert server._service_ewma >= 0.2 * slow * (1 - 1e-9)
        server._inflight = server.workers
        assert not _try_admit(server, deadline_ms)

        # Fast completions decay the skew geometrically; the gate reopens.
        server._inflight = 0
        recovered = False
        for _ in range(300):
            _complete(server, fast)
            server._inflight = server.workers
            if _try_admit(server, deadline_ms):
                recovered = True
                break
            server._inflight = 0
        assert recovered
