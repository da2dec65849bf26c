"""Percentiles, window aggregation and the metric record.

Every end-to-end timing is a plain statistic over all ops that completed
inside the timed window: throughput is completed ops ÷ window length, a
latency percentile is taken over every sample of its kind.  Slicing the
window and reporting a median (or the quietest part) of the slices was
tried and is *not* steadier on this sandbox — its noise comes in epochs
longer than a run (README, "bounds") — so the simplest definition stays.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

__all__ = ["Sample", "Metric", "percentile", "window_metrics", "spread"]


@dataclass(frozen=True)
class Sample:
    """One completed op, as the load generator saw it."""

    kind: str  # "ask" | "dml"
    label: str
    #: Client-side latency on the calibrated clock, and on the wall clock.
    latency_ms: float
    raw_ms: float
    ok: bool
    #: False for an op of the lead-in: checked, not measured.
    measured: bool = True


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    #: Observations behind the value (ops, commits, set-ups …).
    samples: int

    def as_json(self) -> dict:
        return {"value": self.value, "unit": self.unit, "samples": self.samples}


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolated percentile (*q* in [0, 1]) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def window_metrics(
    samples: "list[Sample]", seconds: float, raw_seconds: float
) -> "tuple[dict[str, Metric], dict[str, Metric]]":
    """``(end_to_end, informational)`` metrics of one timed window.

    *seconds* is the time the window spent under load on the calibrated
    clock, *raw_seconds* the same on the wall clock.  Only measured ops
    count; a failed op counts as attempted but contributes no latency and
    no throughput.  The ``raw.*`` twins of the timing metrics are the
    wall-clock readings, for the record.
    """
    good = [s for s in samples if s.ok and s.measured]
    end_to_end = {
        "throughput_ops_s": Metric(len(good) / seconds, "1/s", len(good)),
    }
    info = {
        "raw.throughput_ops_s": Metric(len(good) / raw_seconds, "1/s", len(good)),
    }
    for kind in ("ask", "dml"):
        latencies = [s.latency_ms for s in good if s.kind == kind]
        if not latencies:
            continue  # not applicable to this workload: omitted, not 0
        count = len(latencies)
        end_to_end[f"{kind}_p50_ms"] = Metric(percentile(latencies, 0.50), "ms", count)
        end_to_end[f"{kind}_p95_ms"] = Metric(percentile(latencies, 0.95), "ms", count)
        info[f"{kind}_p99_ms"] = Metric(percentile(latencies, 0.99), "ms", count)
        info[f"raw.{kind}_p50_ms"] = Metric(
            percentile([s.raw_ms for s in good if s.kind == kind], 0.50), "ms", count
        )
    for label in sorted({s.label for s in good}):
        latencies = [s.latency_ms for s in good if s.label == label]
        for name, q in (("p50", 0.50), ("p95", 0.95)):
            info[f"{label}.{name}_ms"] = Metric(
                percentile(latencies, q), "ms", len(latencies)
            )
    return end_to_end, info


def spread(values: "list[float]") -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
