"""Unit tests for the OpenMetrics exposition and parser."""

import pytest

from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.obs.export import (
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.export.openmetrics import (
    sanitize_label_value,
    sanitize_metric_name,
)
from tests.error_codes import raises_code


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("solver.greedy.runs").inc(3)
    registry.gauge("policy.active").set(7)
    histogram = registry.histogram("ask.latency_ms", buckets=[1.0, 10.0, 100.0])
    for value in (0.5, 2.0, 5.0, 50.0, 500.0):
        histogram.observe(value)
    return registry


class TestSanitization:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("solver.greedy.runs") == "solver_greedy_runs"

    def test_leading_digit_gains_prefix(self):
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("") == "_"

    def test_arbitrary_characters(self):
        assert sanitize_metric_name("a-b c/d") == "a_b_c_d"

    def test_label_value_escaping(self):
        assert sanitize_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


class TestRenderAndParse:
    def test_round_trip_through_strict_parser(self):
        text = render_openmetrics(populated_registry())
        families = parse_openmetrics(text)
        assert families["solver_greedy_runs"]["type"] == "counter"
        assert families["policy_active"]["type"] == "gauge"
        assert families["ask_latency_ms"]["type"] == "histogram"

    def test_counter_sample_ends_in_total(self):
        families = parse_openmetrics(render_openmetrics(populated_registry()))
        ((name, _labels, value),) = families["solver_greedy_runs"]["samples"]
        assert name == "solver_greedy_runs_total"
        assert value == 3.0

    def test_help_preserves_the_dotted_name(self):
        families = parse_openmetrics(render_openmetrics(populated_registry()))
        assert families["solver_greedy_runs"]["help"] == "solver.greedy.runs"

    def test_histogram_buckets_are_cumulative_and_inf_equals_count(self):
        families = parse_openmetrics(render_openmetrics(populated_registry()))
        samples = families["ask_latency_ms"]["samples"]
        buckets = [
            (labels["le"], value)
            for name, labels, value in samples
            if name == "ask_latency_ms_bucket"
        ]
        assert buckets == [("1", 1.0), ("10", 3.0), ("100", 4.0), ("+Inf", 5.0)]
        count = next(
            value for name, _l, value in samples if name == "ask_latency_ms_count"
        )
        assert count == 5.0

    def test_quantile_gauges_are_exposed(self):
        families = parse_openmetrics(render_openmetrics(populated_registry()))
        for quantile in ("p50", "p95", "p99"):
            assert families[f"ask_latency_ms_{quantile}"]["type"] == "gauge"

    def test_name_collision_disambiguates(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.counter("a_b").inc()
        families = parse_openmetrics(render_openmetrics(registry))
        assert "a_b" in families and "a_b_2" in families

    def test_empty_registry_renders_just_eof(self):
        text = render_openmetrics(MetricsRegistry())
        assert text == "# EOF\n"
        assert parse_openmetrics(text) == {}


class TestReplicationMetricsExposition:
    """The replication family survives the strict round trip intact."""

    def replication_registry(self) -> MetricsRegistry:
        from repro.obs import TIMING_BUCKETS

        registry = MetricsRegistry()
        registry.gauge("repl.lag_frames").set(4)
        registry.gauge("server.epoch").set(2)
        registry.counter("repl.scrub.divergences").inc(1)
        registry.counter("repl.frames_applied").inc(9)
        histogram = registry.histogram("repl.apply_seconds", TIMING_BUCKETS)
        for value in (0.0004, 0.002, 0.03):
            histogram.observe(value)
        return registry

    def test_round_trip_through_strict_parser(self):
        families = parse_openmetrics(
            render_openmetrics(self.replication_registry())
        )
        assert families["repl_lag_frames"]["type"] == "gauge"
        assert families["server_epoch"]["type"] == "gauge"
        assert families["repl_scrub_divergences"]["type"] == "counter"
        assert families["repl_apply_seconds"]["type"] == "histogram"

    def test_values_and_counts_survive(self):
        families = parse_openmetrics(
            render_openmetrics(self.replication_registry())
        )
        ((_n, _l, lag),) = families["repl_lag_frames"]["samples"]
        assert lag == 4.0
        ((_n, _l, epoch),) = families["server_epoch"]["samples"]
        assert epoch == 2.0
        ((name, _l, divergences),) = families["repl_scrub_divergences"][
            "samples"
        ]
        assert name == "repl_scrub_divergences_total"
        assert divergences == 1.0
        count = next(
            value
            for name, _l, value in families["repl_apply_seconds"]["samples"]
            if name == "repl_apply_seconds_count"
        )
        assert count == 3.0

    def test_live_replication_metrics_render_cleanly(self):
        """Whatever a real replica emitted parses strictly — guards
        against a counter name drifting into something unsanitizable."""
        from repro.obs import get_metrics, set_metrics

        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            registry.gauge("repl.lag_frames").set(0)
            registry.counter("repl.stale_frames_rejected").inc()
            registry.counter("repl.duplicate_frames").inc()
            registry.counter("server.fenced").inc()
            registry.counter("server.sync_timeouts").inc()
            registry.counter("repl.scrub.corruption").inc()
            families = parse_openmetrics(render_openmetrics(registry))
            assert "repl_stale_frames_rejected" in families
            assert "server_fenced" in families
            assert "repl_scrub_corruption" in families
        finally:
            set_metrics(previous)


class TestStrictParserRejections:
    def test_missing_eof(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics("# TYPE a counter\na_total 1\n")

    def test_content_after_eof(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics("# EOF\n# TYPE a counter\na_total 1\n# EOF\n")

    def test_blank_line(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics("# TYPE a counter\n\na_total 1\n# EOF\n")

    def test_sample_without_type(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics("orphan 1\n# EOF\n")

    def test_duplicate_type(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics(
                "# TYPE a counter\n# TYPE a counter\na_total 1\n# EOF\n"
            )

    def test_counter_sample_must_end_in_total(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics("# TYPE a counter\na 1\n# EOF\n")

    def test_bad_sample_value(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics("# TYPE a gauge\na banana\n# EOF\n")

    def test_histogram_without_inf_bucket(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 1\n'
                "h_count 1\nh_sum 0.5\n# EOF\n"
            )

    def test_histogram_non_cumulative_buckets(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 3\n'
                'h_bucket{le="+Inf"} 2\n'
                "h_count 2\nh_sum 0.5\n# EOF\n"
            )

    def test_histogram_inf_bucket_must_equal_count(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics(
                "# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 2\n'
                "h_count 3\nh_sum 0.5\n# EOF\n"
            )

    def test_duplicate_label(self):
        with raises_code(ReproError, "OpenMetricsParseError"):
            parse_openmetrics(
                '# TYPE h histogram\nh_bucket{le="1",le="2"} 1\n# EOF\n'
            )
