"""OpenMetrics text exposition and its strict parser.

The registry's flat dotted names (``solver.greedy.runs``) become valid
metric family names (``solver_greedy_runs``); the original dotted name is
preserved in the ``# HELP`` line so dashboards can map back.  Encoding
follows the OpenMetrics 1.0 text format:

* counters expose one ``<family>_total`` sample;
* gauges expose ``<family>``;
* histograms expose cumulative ``<family>_bucket{le="..."}`` samples
  (including ``le="+Inf"``), ``<family>_sum``, ``<family>_count``, plus
  interpolated quantile gauges ``<family>_p50/_p95/_p99`` (see
  :meth:`~repro.obs.metrics.Histogram.percentile` for the error bound);
* the exposition ends with ``# EOF``.

:func:`parse_openmetrics` is deliberately strict — it is the CI validator
that keeps the exposition honest (type lines before samples, cumulative
non-decreasing buckets, ``+Inf`` bucket equal to ``_count``, valid name
and label grammar, exactly one ``# EOF`` at the end).
"""

from __future__ import annotations

import math
import re
from typing import Any, Mapping

from ...errors import ReproError
from ..metrics import Histogram, MetricsRegistry, get_metrics

__all__ = [
    "render_openmetrics",
    "parse_openmetrics",
    "sanitize_metric_name",
    "sanitize_label_value",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>\S+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_metric_name(name: str) -> str:
    """Map an arbitrary instrument name onto the metric-name grammar.

    Dots and any other invalid characters become underscores; a leading
    digit gains an underscore prefix.  The mapping is deterministic, so
    the same registry always renders the same families.
    """
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def sanitize_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    formatted = repr(float(value))
    return formatted


def _format_le(bound: float) -> str:
    if bound == math.inf:
        return "+Inf"
    return f"{bound:g}"


def render_openmetrics(registry: MetricsRegistry | None = None) -> str:
    """The registry's instruments as OpenMetrics text (ends in ``# EOF``)."""
    registry = registry if registry is not None else get_metrics()
    lines: list[str] = []
    used: dict[str, str] = {}
    for name in registry.names():
        instrument = registry._instruments[name]
        family = sanitize_metric_name(name)
        if family in used and used[family] != name:
            # Two dotted names collapsing onto one family: disambiguate
            # deterministically rather than emit a duplicate family.
            suffix = 2
            while f"{family}_{suffix}" in used:
                suffix += 1
            family = f"{family}_{suffix}"
        used[family] = name
        help_text = sanitize_label_value(name)
        if isinstance(instrument, Histogram):
            # snapshot() reads everything under the instrument's lock, so
            # the rendered count/sum/buckets are mutually consistent even
            # while other threads observe.
            snapshot = instrument.snapshot()
            lines.append(f"# TYPE {family} histogram")
            lines.append(f"# HELP {family} {help_text}")
            cumulative = 0
            per_bucket = list(snapshot["buckets"].values())
            for bound, count in zip(instrument.buckets, per_bucket):
                cumulative += count
                lines.append(
                    f'{family}_bucket{{le="{_format_le(bound)}"}} {cumulative}'
                )
            cumulative += per_bucket[-1]
            lines.append(f'{family}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{family}_count {cumulative}")
            lines.append(f"{family}_sum {_format_value(snapshot['sum'])}")
            for quantile in (50.0, 95.0, 99.0):
                estimate = instrument.percentile(quantile)
                if estimate is not None:
                    lines.append(
                        f"# TYPE {family}_p{quantile:g} gauge"
                    )
                    lines.append(
                        f"{family}_p{quantile:g} {_format_value(estimate)}"
                    )
                    used[f"{family}_p{quantile:g}"] = name
        elif type(instrument).__name__ == "Counter":
            lines.append(f"# TYPE {family} counter")
            lines.append(f"# HELP {family} {help_text}")
            lines.append(f"{family}_total {_format_value(instrument.value)}")
        else:  # gauge
            lines.append(f"# TYPE {family} gauge")
            lines.append(f"# HELP {family} {help_text}")
            lines.append(f"{family} {_format_value(instrument.value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> dict[str, dict[str, Any]]:
    """Strictly parse an OpenMetrics exposition.

    Returns ``{family: {"type": ..., "help": ..., "samples": [(name,
    labels, value), ...]}}``.  Raises ``ReproError`` with code
    ``OpenMetricsParseError`` on any format violation — this is the
    validator CI runs on every dump.
    """
    if not text.endswith("# EOF\n"):
        raise ReproError(
            "exposition must end with '# EOF\\n'", code="OpenMetricsParseError"
        )
    families: dict[str, dict[str, Any]] = {}
    current: str | None = None
    saw_eof = False
    for line_number, line in enumerate(text.splitlines(), start=1):
        if saw_eof:
            raise ReproError(
                f"line {line_number}: content after # EOF",
                code="OpenMetricsParseError",
            )
        if line == "# EOF":
            saw_eof = True
            continue
        if not line:
            raise ReproError(
                f"line {line_number}: blank line", code="OpenMetricsParseError"
            )
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4:
                raise ReproError(
                    f"line {line_number}: malformed TYPE line",
                    code="OpenMetricsParseError",
                )
            _, _, family, metric_type = parts
            if not _NAME_RE.match(family):
                raise ReproError(
                    f"line {line_number}: invalid family name {family!r}",
                    code="OpenMetricsParseError",
                )
            if metric_type not in ("counter", "gauge", "histogram", "summary",
                                   "unknown", "info", "stateset"):
                raise ReproError(
                    f"line {line_number}: unknown type {metric_type!r}",
                    code="OpenMetricsParseError",
                )
            if family in families:
                raise ReproError(
                    f"line {line_number}: duplicate TYPE for {family}",
                    code="OpenMetricsParseError",
                )
            families[family] = {"type": metric_type, "help": None, "samples": []}
            current = family
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ReproError(
                    f"line {line_number}: malformed HELP line",
                    code="OpenMetricsParseError",
                )
            _, _, family, help_text = parts
            if family not in families:
                raise ReproError(
                    f"line {line_number}: HELP before TYPE for {family}",
                    code="OpenMetricsParseError",
                )
            families[family]["help"] = help_text
            continue
        if line.startswith("#"):
            raise ReproError(
                f"line {line_number}: unexpected comment {line!r}",
                code="OpenMetricsParseError",
            )
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ReproError(
                f"line {line_number}: malformed sample {line!r}",
                code="OpenMetricsParseError",
            )
        sample_name = match.group("name")
        family = _family_of(sample_name, families)
        if family is None:
            raise ReproError(
                f"line {line_number}: sample {sample_name!r} has no TYPE",
                code="OpenMetricsParseError",
            )
        if current is not None and family != current and family in families:
            # Samples may only appear inside their family's block.
            if families[family]["samples"] and current != family:
                raise ReproError(
                    f"line {line_number}: interleaved family {family}",
                    code="OpenMetricsParseError",
                )
        labels = _parse_labels(match.group("labels"), line_number)
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            raise ReproError(
                f"line {line_number}: bad value {raw_value!r}",
                code="OpenMetricsParseError",
            ) from None
        metric_type = families[family]["type"]
        if metric_type == "counter" and not sample_name.endswith(
            ("_total", "_created")
        ):
            raise ReproError(
                f"line {line_number}: counter sample {sample_name!r} "
                f"must end in _total",
                code="OpenMetricsParseError",
            )
        families[family]["samples"].append((sample_name, labels, value))
        current = family
    _validate_histograms(families)
    return families


def _family_of(
    sample_name: str, families: Mapping[str, Any]
) -> str | None:
    if sample_name in families:
        return sample_name
    for suffix in ("_total", "_bucket", "_sum", "_count", "_created"):
        if sample_name.endswith(suffix):
            candidate = sample_name[: -len(suffix)]
            if candidate in families:
                return candidate
    return None


def _parse_labels(
    raw: str | None, line_number: int
) -> dict[str, str]:
    if raw is None or raw == "":
        return {}
    labels: dict[str, str] = {}
    consumed = 0
    for match in _LABEL_RE.finditer(raw):
        name, value = match.group(1), match.group(2)
        if not _LABEL_NAME_RE.match(name):
            raise ReproError(
                f"line {line_number}: bad label name {name!r}",
                code="OpenMetricsParseError",
            )
        if name in labels:
            raise ReproError(
                f"line {line_number}: duplicate label {name!r}",
                code="OpenMetricsParseError",
            )
        labels[name] = value
        consumed = match.end()
        if consumed < len(raw) and raw[consumed] == ",":
            consumed += 1
    if consumed < len(raw.rstrip(",")):
        raise ReproError(
            f"line {line_number}: malformed labels {raw!r}",
            code="OpenMetricsParseError",
        )
    return labels


def _validate_histograms(families: Mapping[str, dict[str, Any]]) -> None:
    for family, info in families.items():
        if info["type"] != "histogram":
            continue
        buckets: list[tuple[float, float]] = []
        total_count: float | None = None
        has_sum = False
        for sample_name, labels, value in info["samples"]:
            if sample_name == f"{family}_bucket":
                le = labels.get("le")
                if le is None:
                    raise ReproError(
                        f"{family}: bucket sample without le label",
                        code="OpenMetricsParseError",
                    )
                bound = math.inf if le == "+Inf" else float(le)
                buckets.append((bound, value))
            elif sample_name == f"{family}_count":
                total_count = value
            elif sample_name == f"{family}_sum":
                has_sum = True
        if not buckets:
            raise ReproError(
                f"{family}: histogram has no buckets", code="OpenMetricsParseError"
            )
        bounds = [bound for bound, _count in buckets]
        if bounds != sorted(bounds):
            raise ReproError(
                f"{family}: bucket bounds out of order",
                code="OpenMetricsParseError",
            )
        if bounds[-1] != math.inf:
            raise ReproError(
                f"{family}: missing +Inf bucket", code="OpenMetricsParseError"
            )
        counts = [count for _bound, count in buckets]
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ReproError(
                f"{family}: bucket counts are not cumulative",
                code="OpenMetricsParseError",
            )
        if total_count is None:
            raise ReproError(
                f"{family}: missing _count sample", code="OpenMetricsParseError"
            )
        if not has_sum:
            raise ReproError(
                f"{family}: missing _sum sample", code="OpenMetricsParseError"
            )
        if counts[-1] != total_count:
            raise ReproError(
                f"{family}: +Inf bucket {counts[-1]} != _count {total_count}",
                code="OpenMetricsParseError",
            )
