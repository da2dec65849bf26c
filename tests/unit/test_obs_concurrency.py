"""Thread-safety tests for the observability layer.

The server runs sessions in parallel on its worker pool (the degradation
chain itself runs on its caller's thread), so the instruments an ask
touches — counters, gauges, histograms, the registry's get-or-create, and
the tracer's contextvar-based span parenting — must hold up under
concurrency: counters must not lose increments and spans must not adopt
parents from unrelated threads.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core import make_solver
from repro.increment import DegradationChain, SolverAttempt
from repro.obs import (
    JsonLinesSink,
    MetricsRegistry,
    Tracer,
    get_tracer,
    set_metrics,
    set_tracer,
)
from repro.storage.durability.retry import RetryPolicy
from repro.workload import WorkloadSpec, generate_problem

THREADS = 8
ITERATIONS = 2_000


def _run_in_threads(target, count=THREADS):
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestMetricsUnderThreads:
    def test_counter_loses_no_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")

        def hammer():
            for _ in range(ITERATIONS):
                counter.inc()

        _run_in_threads(hammer)
        assert counter.value == THREADS * ITERATIONS

    def test_gauge_inc_dec_balance_to_zero(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")

        def hammer():
            for _ in range(ITERATIONS):
                gauge.inc(2.0)
                gauge.dec(2.0)

        _run_in_threads(hammer)
        assert gauge.value == 0.0

    def test_histogram_counts_every_observation(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")

        def hammer():
            for index in range(ITERATIONS):
                histogram.observe(float(index % 7))

        _run_in_threads(hammer)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == THREADS * ITERATIONS
        assert sum(snapshot["buckets"].values()) == THREADS * ITERATIONS

    def test_registry_get_or_create_yields_one_instrument(self):
        registry = MetricsRegistry()
        seen: list[int] = []
        barrier = threading.Barrier(THREADS)

        def create():
            barrier.wait()  # maximise racing on the creation path
            for _ in range(100):
                seen.append(id(registry.counter("contested")))

        _run_in_threads(create)
        assert len(set(seen)) == 1

    def test_concurrent_increments_through_registry_lookup(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(ITERATIONS):
                registry.counter("via.lookup").inc()

        _run_in_threads(hammer)
        assert registry.counter("via.lookup").value == THREADS * ITERATIONS


class TestTracerUnderThreads:
    def test_fresh_threads_do_not_inherit_the_current_span(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with tracer.capture() as sink:
                with tracer.span("root"):
                    recorded = []

                    def worker():
                        with tracer.span("detached") as span:
                            recorded.append(span)

                    _run_in_threads(worker, count=2)
            detached = sink.find("detached")
            assert len(detached) == 2
            for span in detached:
                assert span.parent_id is None  # no cross-thread adoption
        finally:
            set_tracer(previous)

    def test_copied_context_preserves_the_parent(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with tracer.capture() as sink:
                with tracer.span("root") as root:
                    context = contextvars.copy_context()

                    def worker():
                        with tracer.span("adopted"):
                            pass

                    thread = threading.Thread(target=lambda: context.run(worker))
                    thread.start()
                    thread.join()
            (adopted,) = sink.find("adopted")
            assert adopted.parent_id == root.span_id
        finally:
            set_tracer(previous)

    def test_parallel_span_stacks_do_not_interleave(self):
        """Each thread's nesting is private: a child opened on thread A
        never claims a parent opened on thread B."""
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            with tracer.capture() as sink:
                barrier = threading.Barrier(4)

                def worker(label):
                    def run():
                        with tracer.span(f"outer-{label}") as outer:
                            barrier.wait()
                            with tracer.span(f"inner-{label}") as inner:
                                assert inner.parent_id == outer.span_id

                    return run

                threads = [
                    threading.Thread(target=worker(index)) for index in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            for label in range(4):
                (outer,) = sink.find(f"outer-{label}")
                (inner,) = sink.find(f"inner-{label}")
                assert inner.parent_id == outer.span_id
                assert outer.parent_id is None
        finally:
            set_tracer(previous)


class TestThreadedEngineUse:
    def test_concurrent_degradation_chains_count_every_hop(self):
        """Chains solving in parallel from several threads must account
        for every fallback hop exactly once."""
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            problem = generate_problem(
                WorkloadSpec(data_size=20, tuples_per_result=4), seed=0
            ).problem

            def flaky(problem, budget=None):
                from repro.increment.runtime import budget_exceeded

                raise budget_exceeded("flaky", problem, None)

            chain = DegradationChain(
                [
                    SolverAttempt("flaky", flaky),
                    SolverAttempt("greedy", make_solver("greedy")),
                ]
            )
            plans = []

            def solve():
                plans.append(chain.solve(problem))

            _run_in_threads(solve, count=4)
            assert len(plans) == 4
            snapshot = registry.snapshot()
            assert snapshot["pcqe.fallback_hops"] == 4
            assert snapshot["pcqe.fallback_successes"] == 4
        finally:
            set_metrics(previous)

    def test_chain_worker_nesting_survives_concurrency(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            problem = generate_problem(
                WorkloadSpec(data_size=15, tuples_per_result=4), seed=1
            ).problem
            chain = DegradationChain(
                [SolverAttempt("greedy", make_solver("greedy"))]
            )
            with tracer.capture() as sink:

                def solve():
                    chain.solve(problem)

                _run_in_threads(solve, count=3)
            attempts = sink.find("pcqe.solver_attempt")
            assert len(attempts) == 3
            solver_roots = [
                span for span in sink.spans if span.name == "solver.greedy"
            ]
            assert len(solver_roots) == 3
            # Every solver span hangs off exactly one attempt span.
            attempt_ids = {span.span_id for span in attempts}
            for span in solver_roots:
                assert span.parent_id in attempt_ids
        finally:
            set_tracer(previous)


class _FlakyHandle:
    """A file-like handle that fails the first *failures* writes."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.attempts = 0
        self.lines: list[str] = []

    def write(self, text: str) -> None:
        self.attempts += 1
        if self.attempts <= self.failures:
            raise OSError("transient write failure")
        self.lines.append(text)

    def flush(self) -> None:
        pass


class TestSinkErrorHandling:
    """Tracing must never take the query path down with it."""

    def _isolated(self):
        registry = MetricsRegistry()
        return registry, set_metrics(registry)

    def test_retry_policy_recovers_a_transient_failure(self):
        registry, previous = self._isolated()
        try:
            handle = _FlakyHandle(failures=1)
            retry = RetryPolicy(attempts=3, base_delay=0.0, sleep=lambda _s: None)
            sink = JsonLinesSink(handle, retry=retry)
            tracer = Tracer(sinks=[sink])
            with tracer.span("survives"):
                pass
            assert sink.dropped == 0
            assert handle.attempts == 2  # one failure, one retried success
            assert len(handle.lines) == 1
            assert "trace.sink_errors" not in registry.snapshot()
        finally:
            set_metrics(previous)

    def test_exhausted_retries_count_the_drop_and_do_not_raise(self):
        registry, previous = self._isolated()
        try:
            handle = _FlakyHandle(failures=10)
            retry = RetryPolicy(attempts=2, base_delay=0.0, sleep=lambda _s: None)
            sink = JsonLinesSink(handle, retry=retry)
            tracer = Tracer(sinks=[sink])
            with tracer.span("dropped"):
                pass  # the export failure must not propagate here
            assert sink.dropped == 1
            assert handle.attempts == 2
            assert registry.snapshot()["trace.sink_errors"] == 1
        finally:
            set_metrics(previous)

    def test_concurrent_exports_count_every_drop(self):
        registry, previous = self._isolated()
        try:
            handle = _FlakyHandle(failures=10**9)  # never succeeds
            sink = JsonLinesSink(handle)
            tracer = Tracer(sinks=[sink])

            def trace():
                for _ in range(50):
                    with tracer.span("doomed"):
                        pass

            _run_in_threads(trace, count=4)
            assert sink.dropped == 200
            assert registry.snapshot()["trace.sink_errors"] == 200
        finally:
            set_metrics(previous)


class TestMetricLockContentionUnderPool:
    """The serving arc observes from a thread pool; instruments must stay
    exact while readers (snapshots, percentiles, expositions) run
    concurrently with writers."""

    def test_histogram_is_exact_under_pool_writers_and_readers(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("pool.latency", buckets=[1.0, 5.0, 25.0])
        writes_per_worker = 1_000

        def write(worker: int) -> None:
            for index in range(writes_per_worker):
                histogram.observe(float((worker + index) % 30))

        def read(_worker: int) -> None:
            for _ in range(200):
                snap = histogram.snapshot()
                # A snapshot is internally consistent: bucket counts always
                # sum to the count taken under the same lock.
                assert sum(snap["buckets"].values()) == snap["count"]
                histogram.percentile(95.0)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(write, worker) for worker in range(4)]
            futures += [pool.submit(read, worker) for worker in range(4)]
            for future in futures:
                future.result()
        assert histogram.count == 4 * writes_per_worker

    def test_mixed_instruments_under_one_pool(self):
        registry = MetricsRegistry()
        rounds = 500

        def work(worker: int) -> None:
            for _ in range(rounds):
                registry.counter("pool.counter").inc()
                registry.gauge("pool.gauge").inc()
                registry.gauge("pool.gauge").dec()
                registry.histogram("pool.histogram").observe(0.5)

        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(work, w) for w in range(8)]:
                future.result()
        snap = registry.snapshot()
        assert snap["pool.counter"] == 8 * rounds
        assert snap["pool.gauge"] == 0.0
        assert snap["pool.histogram"]["count"] == 8 * rounds


class TestRegistryAtomicity:
    """Regressions for the check-then-act registry races (ISSUE 8)."""

    def test_snapshot_survives_a_first_touch_storm(self):
        # Pre-fix, snapshot()/names() iterated _instruments without the
        # lock; concurrent first-touch creation made the dict grow mid-
        # iteration and raised RuntimeError.
        registry = MetricsRegistry()
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader() -> None:
            while not stop.is_set():
                try:
                    registry.snapshot()
                    registry.names()
                except BaseException as exc:  # pragma: no cover - reporting
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()

        def creator(worker: int) -> None:
            for i in range(500):
                registry.counter(f"storm.{worker}.{i}")

        _run_in_threads_indexed(creator)
        stop.set()
        for thread in readers:
            thread.join()
        assert errors == []
        assert len(registry.names()) == THREADS * 500

    def test_histogram_buckets_always_pass_through_creation(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", buckets=[1.0, 2.0])
        again = registry.histogram("h", buckets=[9.0])
        assert again is first
        assert first.buckets == (1.0, 2.0)

    def test_histogram_creation_is_atomic_against_reset(self):
        # Pre-fix, histogram() pre-checked membership outside the lock and
        # dropped the caller's buckets on the "exists" arm — a reset()
        # landing between the check and the create silently registered a
        # DEFAULT_BUCKETS histogram.  Reproduce that interleaving
        # deterministically: a dict whose membership check triggers the
        # concurrent reset.  Post-fix the pre-check is gone (buckets flow
        # through the locked get-or-create), so the hook never fires.
        registry = MetricsRegistry()

        class _ResetOnContains(dict):
            def __contains__(self, key):  # the pre-fix check-then-act window
                result = super().__contains__(key)
                self.clear()
                return result

        registry.histogram("h", buckets=[1.0, 2.0])
        registry._instruments = _ResetOnContains(registry._instruments)
        survivor = registry.histogram("h", buckets=[1.0, 2.0])
        assert survivor.buckets == (1.0, 2.0)

    def test_set_metrics_swap_chain_is_linear(self):
        # Every concurrent set_metrics must displace a *distinct* registry:
        # the previous-values plus the final global are a permutation of
        # {original} ∪ {installed}.  A non-atomic read-then-write lets two
        # threads observe the same previous and lose an install.
        original = MetricsRegistry()
        previous_seen: list[MetricsRegistry] = []
        installed = [MetricsRegistry() for _ in range(THREADS)]
        old = set_metrics(original)
        try:
            barrier = threading.Barrier(THREADS)

            def swap(worker: int) -> None:
                barrier.wait()
                previous_seen.append(set_metrics(installed[worker]))

            _run_in_threads_indexed(swap)
            final = set_metrics(original)
        finally:
            set_metrics(old)
        chain = {id(registry) for registry in previous_seen} | {id(final)}
        assert chain == {id(original)} | {id(r) for r in installed}


def _run_in_threads_indexed(target, count=THREADS):
    threads = [
        threading.Thread(target=target, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
