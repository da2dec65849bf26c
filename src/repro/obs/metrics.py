"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments,
get-or-created on first use::

    metrics = get_metrics()
    metrics.counter("solver.greedy.gain_evaluations").inc(120)
    metrics.histogram("lineage.formula_nodes").observe(17)

Instruments are deliberately simple (no label sets): the paper's pipeline
has a fixed, known set of stages, and a flat dotted name per (stage,
quantity) keeps snapshots diffable with plain dictionaries —
:func:`metrics_diff` is what ``profile=True`` uses to attribute counter
movement to one engine run.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "metrics_diff",
]

#: Default histogram bucket upper bounds: generic log-ish scale that covers
#: sub-millisecond timings and formula/partition sizes alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1000.0,
)


class Counter:
    """A monotonically increasing count.

    Thread-safe: the server runs sessions on a worker pool, so
    ``inc`` (a read-modify-write) takes a per-instrument lock — plain
    ``+=`` on a float drops increments under contention.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (last write wins); thread-safe."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max summary.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; the final
    slot is the overflow bucket (``> buckets[-1]``).

    :meth:`percentile` estimates quantiles by locating the bucket the
    requested rank falls into and interpolating *linearly within it*
    (clamped to the observed min/max).  The estimate is exact when the
    rank lands on a bucket boundary; otherwise the error is bounded by
    the width of the containing bucket — pick bucket boundaries around
    your SLO targets (see :data:`~repro.obs.instrument.TIMING_BUCKETS`)
    and p50/p95/p99 are trustworthy to that resolution.
    """

    __slots__ = (
        "name",
        "buckets",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "_lock",
    )

    def __init__(self, name: str, buckets: Iterable[float] | None = None) -> None:
        self.name = name
        self.buckets: tuple[float, ...] = tuple(
            sorted(buckets) if buckets is not None else DEFAULT_BUCKETS
        )
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float | None:
        """The *p*-th percentile (``0 <= p <= 100``), or ``None`` if empty.

        Rank semantics: the value at cumulative position ``p/100 * count``
        under the histogram's bucketing, interpolated linearly inside the
        containing bucket.  The first bucket interpolates from the observed
        minimum and the overflow bucket toward the observed maximum, so the
        estimate never leaves ``[min, max]``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if self.count == 0:
                return None
            counts = list(self.bucket_counts)
            count = self.count
            low = self.min if self.min is not None else 0.0
            high = self.max if self.max is not None else 0.0
        target = (p / 100.0) * count
        cumulative = 0.0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                # Bucket i spans (lower, upper]; interpolate the rank's
                # position inside it assuming uniform spread.
                lower = low if index == 0 else self.buckets[index - 1]
                upper = high if index == len(self.buckets) else self.buckets[index]
                fraction = (target - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, low), high)
            cumulative += bucket_count
        return high  # p == 100 with floating-point drift

    def summary(self) -> dict[str, Any]:
        """count/sum/mean plus interpolated p50/p95/p99 (for expositions)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "mean": self.mean,
                "buckets": {
                    **{
                        f"le_{bound:g}": count
                        for bound, count in zip(self.buckets, self.bucket_counts)
                    },
                    "overflow": self.bucket_counts[-1],
                },
            }


class MetricsRegistry:
    """Flat, thread-safe namespace of named instruments."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, *args: Any) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = kind(name, *args)
                    self._instruments[name] = instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None
    ) -> Histogram:
        # Buckets go through the locked get-or-create unconditionally (a
        # ``None`` reaches Histogram as DEFAULT_BUCKETS): a pre-check here
        # would be check-then-act, and a first-touch racing it could win
        # creation with the wrong bucket bounds.  First creator's buckets
        # stick; later callers' bucket argument is ignored.
        return self._get_or_create(name, Histogram, buckets)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict[str, Any]:
        """Every instrument's current value, keyed by name."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in instruments}

    def reset(self) -> None:
        """Drop every registered instrument (tests / run isolation)."""
        with self._lock:
            self._instruments.clear()


def metrics_diff(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> dict[str, Any]:
    """What moved between two :meth:`MetricsRegistry.snapshot` calls.

    Scalar instruments (counters/gauges) diff numerically; histograms diff
    their ``count``/``sum`` and report the interval's mean.  Instruments
    that did not change are omitted.
    """
    delta: dict[str, Any] = {}
    for name, now in after.items():
        was = before.get(name)
        if isinstance(now, dict):  # histogram
            was_count = was["count"] if isinstance(was, dict) else 0
            was_sum = was["sum"] if isinstance(was, dict) else 0.0
            count = now["count"] - was_count
            if count:
                total = now["sum"] - was_sum
                delta[name] = {
                    "count": count,
                    "sum": total,
                    "mean": total / count,
                }
        else:
            moved = now - (was if was is not None else 0.0)
            if moved:
                delta[name] = moved
    return delta


_GLOBAL_METRICS = MetricsRegistry()
_GLOBAL_METRICS_LOCK = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry used by all built-in instrumentation."""
    return _GLOBAL_METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry (returns the previous one).

    The swap is atomic: concurrent ``set_metrics`` calls (e.g. a test
    installing an isolated registry while server workers run) serialize,
    so the returned "previous" registry is always the one this call
    actually displaced and restore-previous stacks unwind correctly.
    """
    global _GLOBAL_METRICS
    with _GLOBAL_METRICS_LOCK:
        previous = _GLOBAL_METRICS
        _GLOBAL_METRICS = registry
        return previous
