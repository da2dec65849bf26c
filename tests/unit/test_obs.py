"""Unit tests for the observability toolkit (repro.obs)."""

import io
import json
import logging

import pytest

from repro.obs import (
    InMemorySink,
    JsonLinesSink,
    MetricsRegistry,
    ProfileReport,
    TIMING_BUCKETS,
    Tracer,
    configure_logging,
    get_tracer,
    metrics_diff,
    solver_run,
)
from repro.obs.tracer import _NOOP_SPAN


class TestTracer:
    def test_disabled_tracer_returns_shared_noop(self):
        tracer = Tracer()
        assert not tracer.enabled
        first = tracer.span("anything", key="value")
        second = tracer.span("other")
        assert first is second is _NOOP_SPAN
        # The no-op supports the full span surface without side effects.
        with first as span:
            span.set_attribute("x", 1)
            span.add_event("e", detail=2)

    def test_span_nesting_records_parent_ids(self):
        tracer = Tracer()
        sink = tracer.add_sink(InMemorySink())
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert inner.parent_id == middle.span_id
        assert middle.parent_id == outer.span_id
        assert outer.parent_id is None
        # One trace id across the tree.
        assert {span.trace_id for span in sink.spans} == {outer.trace_id}

    def test_sink_receives_children_before_parents(self):
        tracer = Tracer()
        sink = tracer.add_sink(InMemorySink())
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        assert [span.name for span in sink.spans] == ["child", "parent"]
        # start_index preserves start order for reordering consumers.
        child, parent = sink.spans
        assert parent.start_index < child.start_index

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        sink = tracer.add_sink(InMemorySink())
        with tracer.span("root") as root:
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        first, second = sink.find("first")[0], sink.find("second")[0]
        assert first.parent_id == second.parent_id == root.span_id

    def test_current_span_tracks_innermost(self):
        tracer = Tracer(sinks=[InMemorySink()])
        assert tracer.current_span() is None
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None

    def test_exception_marks_span_error_and_still_exports(self):
        tracer = Tracer()
        sink = tracer.add_sink(InMemorySink())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = sink.spans
        assert span.status == "error"
        assert span.duration_seconds is not None

    def test_attributes_and_events(self):
        tracer = Tracer(sinks=[InMemorySink()])
        with tracer.span("op", preset=1) as span:
            span.set_attribute("later", 2)
            span.add_event("checkpoint", progress=0.5)
        assert span.attributes == {"preset": 1, "later": 2}
        (event,) = span.events
        assert event.name == "checkpoint"
        assert event.attributes == {"progress": 0.5}
        record = span.to_dict()
        assert record["attributes"]["preset"] == 1
        assert record["events"][0]["name"] == "checkpoint"

    def test_capture_attaches_and_detaches(self):
        tracer = Tracer()
        with tracer.capture() as sink:
            assert tracer.enabled
            with tracer.span("seen"):
                pass
        assert not tracer.enabled
        with tracer.span("unseen"):
            pass
        assert [span.name for span in sink.spans] == ["seen"]

    def test_remove_sink(self):
        tracer = Tracer()
        sink = tracer.add_sink(InMemorySink())
        tracer.remove_sink(sink)
        assert not tracer.enabled
        tracer.remove_sink(sink)  # idempotent

    def test_global_tracer_exists(self):
        assert isinstance(get_tracer(), Tracer)

    def test_duration_uses_the_monotonic_clock(self, monkeypatch):
        """A wall-clock step backwards mid-span (NTP adjustment) must not
        produce a negative duration — durations come from monotonic_ns."""
        import time as time_module

        tracer = Tracer(sinks=[InMemorySink()])
        wall = iter([1_000_000.0, 999_000.0])  # time.time jumps backwards
        monkeypatch.setattr(time_module, "time", lambda: next(wall, 999_000.0))
        with tracer.span("adjusted") as span:
            pass
        assert span.duration_seconds is not None
        assert span.duration_seconds >= 0.0

    def test_span_records_wall_start_but_monotonic_duration(self):
        tracer = Tracer(sinks=[InMemorySink()])
        with tracer.span("timed") as span:
            pass
        # start_time is a wall-clock timestamp for log correlation...
        assert span.start_time == pytest.approx(__import__("time").time(), abs=60)
        # ...while the duration was measured in nanoseconds internally.
        assert isinstance(span._started_ns, int)


class TestSinks:
    def test_in_memory_ring_buffer_evicts_oldest(self):
        tracer = Tracer()
        sink = tracer.add_sink(InMemorySink(capacity=2))
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [span.name for span in sink.spans] == ["b", "c"]
        assert len(sink) == 2
        sink.clear()
        assert len(sink) == 0

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        sink = tracer.add_sink(JsonLinesSink(str(path)))
        with tracer.span("parent", user="alice"):
            with tracer.span("child") as child:
                child.add_event("tick", n=1)
        sink.close()
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["name"] for record in records] == ["child", "parent"]
        child_rec, parent_rec = records
        assert child_rec["parent_id"] == parent_rec["span_id"]
        assert parent_rec["attributes"] == {"user": "alice"}
        assert child_rec["events"][0]["name"] == "tick"
        assert all(record["duration_seconds"] >= 0 for record in records)

    def test_jsonl_accepts_open_handle(self):
        buffer = io.StringIO()
        tracer = Tracer(sinks=[JsonLinesSink(buffer)])
        with tracer.span("op"):
            pass
        assert json.loads(buffer.getvalue())["name"] == "op"


class TestMetrics:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        # get-or-create returns the same instrument.
        assert registry.counter("c") is counter

    def test_gauge_semantics(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.snapshot() == 7

    def test_histogram_buckets_and_summary(self):
        histogram = MetricsRegistry().histogram("h", buckets=[1.0, 10.0])
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(55.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 50.0
        assert snap["mean"] == pytest.approx(18.5)
        assert snap["buckets"] == {"le_1": 1, "le_10": 1, "overflow": 1}

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.gauge("name")

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("b").observe(1.0)
        snap = registry.snapshot()
        assert snap["a"] == 1
        assert snap["b"]["count"] == 1
        assert registry.names() == ["a", "b"]
        registry.reset()
        assert registry.names() == []

    def test_percentile_empty_histogram_is_none(self):
        histogram = MetricsRegistry().histogram("empty")
        assert histogram.percentile(50.0) is None

    def test_percentile_range_validation(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(-1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101.0)

    def test_percentile_exact_on_bucket_boundary(self):
        """The estimate is exact when the rank lands on a bucket edge."""
        histogram = MetricsRegistry().histogram("h", buckets=[10.0, 20.0])
        for value in (10.0, 10.0, 20.0, 20.0):
            histogram.observe(value)
        # Rank 2 of 4 exhausts the first bucket exactly -> its upper bound.
        assert histogram.percentile(50.0) == pytest.approx(10.0)
        assert histogram.percentile(100.0) == pytest.approx(20.0)

    def test_percentile_error_bounded_by_bucket_width(self):
        """Interpolated estimates stay within the containing bucket, so
        the error against exact quantiles is at most one bucket width."""
        import statistics as stats

        histogram = MetricsRegistry().histogram(
            "h", buckets=[5.0, 10.0, 15.0, 20.0, 25.0]
        )
        values = [0.5 + (i % 25) for i in range(500)]  # uniform over (0, 25)
        for value in values:
            histogram.observe(value)
        exact = stats.quantiles(values, n=100)
        for p in (50.0, 95.0, 99.0):
            estimate = histogram.percentile(p)
            assert abs(estimate - exact[int(p) - 1]) <= 5.0  # bucket width

    def test_percentile_clamps_to_observed_min_and_max(self):
        histogram = MetricsRegistry().histogram("h", buckets=[100.0])
        histogram.observe(40.0)
        histogram.observe(60.0)
        # All mass in one wide bucket: interpolation cannot escape [40, 60].
        assert 40.0 <= histogram.percentile(1.0) <= 60.0
        assert 40.0 <= histogram.percentile(99.0) <= 60.0

    def test_percentile_overflow_bucket_interpolates_toward_max(self):
        histogram = MetricsRegistry().histogram("h", buckets=[1.0])
        for value in (0.5, 5.0, 9.0):
            histogram.observe(value)
        estimate = histogram.percentile(99.0)
        assert 1.0 <= estimate <= 9.0

    def test_summary_carries_quantiles(self):
        histogram = MetricsRegistry().histogram("h", buckets=[1.0, 10.0])
        for value in (0.5, 2.0, 8.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["p50"] is not None
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_metrics_diff(self):
        registry = MetricsRegistry()
        registry.counter("moved").inc(3)
        registry.counter("still")
        registry.histogram("timing").observe(1.0)
        before = registry.snapshot()
        registry.counter("moved").inc(2)
        registry.histogram("timing").observe(3.0)
        registry.counter("fresh").inc()
        delta = metrics_diff(before, registry.snapshot())
        assert delta["moved"] == 2
        assert delta["fresh"] == 1
        assert "still" not in delta
        assert delta["timing"] == {"count": 1, "sum": 3.0, "mean": 3.0}


class TestSolverRun:
    class _Stats:
        def __init__(self):
            self.elapsed_seconds = 0.0
            self.completed = True
            self.nodes_explored = 0

    def test_sets_elapsed_and_emits_metrics(self):
        from repro.obs import get_metrics, set_metrics

        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            stats = self._Stats()
            with solver_run("testalg", stats):
                stats.nodes_explored = 7
            assert stats.elapsed_seconds > 0
            snap = registry.snapshot()
            assert snap["solver.testalg.runs"] == 1
            assert snap["solver.testalg.nodes_explored"] == 7
            assert snap["solver.testalg.elapsed_seconds"]["count"] == 1
        finally:
            set_metrics(previous)

    def test_incomplete_run_counter(self):
        from repro.obs import set_metrics

        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            stats = self._Stats()
            with pytest.raises(ValueError):
                with solver_run("failing", stats):
                    stats.completed = False
                    raise ValueError("search exhausted")
            assert stats.elapsed_seconds > 0  # stamped despite the raise
            assert registry.snapshot()["solver.failing.incomplete_runs"] == 1
        finally:
            set_metrics(previous)

    def test_timing_buckets_are_sorted(self):
        assert list(TIMING_BUCKETS) == sorted(TIMING_BUCKETS)


class TestProfileReport:
    def _capture(self):
        tracer = Tracer()
        sink = tracer.add_sink(InMemorySink())
        with tracer.span("root"):
            with tracer.span("stage_a"):
                pass
            with tracer.span("stage_b"):
                with tracer.span("nested"):
                    pass
            with tracer.span("stage_a"):
                pass
        return sink.spans

    def test_stages_aggregate_direct_children(self):
        report = ProfileReport.from_spans(self._capture(), root="root")
        assert list(report.stages) == ["stage_a", "stage_b"]
        assert report.total_seconds > 0
        # Two stage_a spans summed; nested span not counted as a stage.
        assert "nested" not in report.stages
        assert report.unattributed_seconds >= 0
        assert sum(report.stages.values()) <= report.total_seconds + 1e-9

    def test_missing_root_yields_empty_report(self):
        report = ProfileReport.from_spans(self._capture(), root="absent")
        assert report.total_seconds == 0.0
        assert report.stages == {}

    def test_format_mentions_stages_and_metrics(self):
        report = ProfileReport.from_spans(
            self._capture(), root="root", metrics={"solver.greedy.runs": 1}
        )
        text = report.format()
        assert "stage_a" in text
        assert "(unattributed)" in text
        assert "solver.greedy.runs" in text


class TestConfigureLogging:
    def test_idempotent_handler(self):
        stream = io.StringIO()
        logger = configure_logging("DEBUG", stream=stream, logger_name="repro.t1")
        again = configure_logging("INFO", stream=stream, logger_name="repro.t1")
        assert logger is again
        marked = [
            handler
            for handler in logger.handlers
            if getattr(handler, "_repro_obs_handler", False)
        ]
        assert len(marked) == 1
        assert logger.level == logging.INFO

    def test_string_level_and_output(self):
        stream = io.StringIO()
        logger = configure_logging("warning", stream=stream, logger_name="repro.t2")
        logger.warning("observable")
        assert "observable" in stream.getvalue()

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("noisy", logger_name="repro.t3")
