"""Observability for the PCQE pipeline: tracing spans, metrics, logging.

Zero-dependency instrumentation mirroring the paper's evaluation
methodology (§5 measures *where* time and cost go — heuristic pruning,
greedy gain recomputation, D&C partitioning), so a run can explain itself:

* :class:`Tracer` — nested spans with a contextvar current-span and
  pluggable sinks (:class:`InMemorySink` ring buffer, :class:`JsonLinesSink`
  file).  Disabled by default: with no sink attached, ``tracer.span(...)``
  is a shared no-op.
* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket histograms
  under flat dotted names (``solver.heuristic.nodes_pruned_h3``,
  ``executor.columnar.scan.rows_emitted``, ``policy.rows_withheld`` …).
* :func:`solver_run` — the one timing context manager all four increment
  solvers share (span + ``stats.elapsed_seconds`` + metric emission).
* :class:`ProfileReport` — the stage breakdown ``PCQEngine`` attaches to a
  result under ``profile=True``; built from spans, it is the one profiler.
* :func:`configure_logging` — one-call stdlib-logging setup for the
  package's module loggers.
* :func:`render_openmetrics` / :func:`parse_openmetrics` — OpenMetrics
  text exposition of the registry and its strict validator.  The registry
  leaves the process through the shell's ``metrics dump`` and the
  server's ``metrics`` op, both of which render this text.
* :mod:`repro.obs.audit` (imported directly, not re-exported here) — the
  append-only decision audit journal and its replay/explain tooling.

Typical use::

    from repro import obs

    obs.configure_logging("DEBUG")
    sink = obs.get_tracer().add_sink(obs.JsonLinesSink("trace.jsonl"))
    ... run queries ...
    print(obs.get_metrics().snapshot())
"""

from .instrument import TIMING_BUCKETS, solver_run
from .logconfig import configure_logging
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    metrics_diff,
    set_metrics,
)
from .profile import ProfileReport
from .export import (
    parse_openmetrics,
    render_openmetrics,
)
from .sinks import InMemorySink, JsonLinesSink, SpanSink
from .tracer import Span, SpanEvent, Tracer, get_tracer, set_tracer

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "SpanSink",
    "InMemorySink",
    "JsonLinesSink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "metrics_diff",
    "ProfileReport",
    "parse_openmetrics",
    "render_openmetrics",
    "solver_run",
    "TIMING_BUCKETS",
    "configure_logging",
]
