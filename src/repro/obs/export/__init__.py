"""Production telemetry exposition for the metrics registry.

* :func:`render_openmetrics` — the registry as OpenMetrics/Prometheus
  text: counters as ``_total`` samples, gauges, histograms with proper
  cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` encoding, names
  and labels sanitized to the spec's grammar, terminated by ``# EOF``.
* :func:`parse_openmetrics` — a strict parser for the same format; the
  round-trip validator CI runs against every dump.
"""

from .openmetrics import (
    parse_openmetrics,
    render_openmetrics,
    sanitize_metric_name,
)

__all__ = [
    "parse_openmetrics",
    "render_openmetrics",
    "sanitize_metric_name",
]
