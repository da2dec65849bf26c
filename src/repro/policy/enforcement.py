"""Policy evaluation over query results (paper element 3).

:class:`PolicyEvaluator` implements the Figure-1 "Policy Evaluation"
component: given a result set with confidences and an effective threshold,
it partitions rows into released and withheld and reports whether the
user's requested fraction of results survived — the trigger for strategy
finding.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..algebra.rows import AnnotatedTuple, ResultSet
from ..errors import ReproError
from ..obs import get_metrics, get_tracer
from ..storage.tuples import TupleId
from .store import PolicyStore

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.database import Database

__all__ = ["FilterOutcome", "PolicyEvaluator"]


class OutcomeSide(Sequence):
    """One side of a threshold partition: positions of a result set and
    the confidence at each.

    A sequence of ``(AnnotatedTuple, confidence)`` pairs whose length,
    :attr:`positions`, :attr:`confidences` and :meth:`values` read no row:
    the tuples — and through them a columnar result's ``Var``/``And`` —
    are built when a pair is first read, for this side's positions only.
    """

    __slots__ = ("_result", "positions", "confidences", "_pairs")

    def __init__(
        self, result: ResultSet, positions: list[int], confidences: list[float]
    ) -> None:
        self._result = result
        self.positions = positions
        self.confidences = confidences
        self._pairs: list[tuple[AnnotatedTuple, float]] | None = None

    def values(self) -> list[tuple[Any, ...]]:
        """This side's bare value tuples, in result order."""
        return self._result.values(self.positions)

    def _built(self) -> list[tuple[AnnotatedTuple, float]]:
        if self._pairs is None:
            rows = self._result.take(self.positions).rows
            self._pairs = list(zip(rows, self.confidences))
        return self._pairs

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and self._built() == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"<{len(self)} row(s) of {self._result!r}>"


@dataclass
class FilterOutcome:
    """Result of applying one confidence threshold to a result set.

    :meth:`PolicyEvaluator.apply_threshold` fills both sides lazily (see
    :class:`OutcomeSide`): counting them — ``total``, ``released_fraction``,
    ``satisfies``, ``shortfall`` — builds no row.
    """

    threshold: float
    released: Sequence[tuple[AnnotatedTuple, float]]
    withheld: Sequence[tuple[AnnotatedTuple, float]]

    @property
    def total(self) -> int:
        return len(self.released) + len(self.withheld)

    @property
    def released_fraction(self) -> float:
        """θ′ in the paper: the fraction of results above the threshold."""
        if self.total == 0:
            return 1.0
        return len(self.released) / self.total

    def satisfies(self, required_fraction: float) -> bool:
        """Whether at least *required_fraction* (θ) of results survived."""
        return self.released_fraction >= required_fraction

    def shortfall(self, required_fraction: float) -> int:
        """How many more rows must clear the threshold to reach θ.

        The paper's ``(θ − θ′)·n``, rounded up to whole rows — computed so
        that ``shortfall(θ) == 0`` exactly when :meth:`satisfies` holds:
        the naive ``ceil(θ·n − ε)`` on floats can demand one row too many
        (θ·n just above an integer) or too few (θ the float just above a
        fraction like 1/3, where θ·n rounds down to the integer) at
        boundary fractions.
        """
        if self.satisfies(required_fraction):
            return 0  # by definition; also the pipeline's common case
        needed = math.ceil(required_fraction * self.total - 1e-9)
        needed = max(0, min(needed, self.total))
        # Align with satisfies(), which compares released/total (a float
        # division) against θ: pick the *minimal* integer count whose
        # fraction clears θ under that same comparison.
        while needed > 0 and (needed - 1) / self.total >= required_fraction:
            needed -= 1
        while needed < self.total and needed / self.total < required_fraction:
            needed += 1
        return max(0, needed - len(self.released))

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"FilterOutcome(threshold={self.threshold}, "
            f"released={len(self.released)}/{self.total})"
        )


class PolicyEvaluator:
    """Applies confidence policies from a store to query results."""

    def __init__(self, store: PolicyStore) -> None:
        self.store = store

    def evaluate(
        self,
        result: ResultSet,
        source: "Database | Mapping[TupleId, float]",
        subject: str,
        purpose: str,
        subject_is_user: bool = True,
    ) -> FilterOutcome:
        """Filter *result* under the policy for (subject, purpose)."""
        threshold = self.store.threshold_for(subject, purpose, subject_is_user)
        return self.apply_threshold(result, source, threshold)

    @staticmethod
    def apply_threshold(
        result: ResultSet,
        source: "Database | Mapping[TupleId, float]",
        threshold: float,
    ) -> FilterOutcome:
        """Partition rows by ``confidence > threshold``.

        Instrumented as two stages — ``policy.confidence`` (lineage
        probability per row, the paper's element 2) and ``policy.filter``
        (the threshold partition, element 3) — with rows-released/withheld
        counters so enforcement effectiveness is observable per run.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ReproError(
                f"threshold {threshold} outside [0, 1]", code="PolicyError"
            )
        tracer = get_tracer()
        with tracer.span("policy.confidence", rows=len(result)) as span:
            reused_circuits = result.has_compiled_circuits
            confidences = result.confidences(source)
            span.set_attribute("rows", len(confidences))
            # A product-form result builds no pool: nothing to describe.
            compiled = bool(confidences) and result.has_compiled_circuits
            if compiled:
                circuit_stats = result.circuit_stats()
                span.set_attribute("circuit.nodes", circuit_stats["nodes"])
                span.set_attribute(
                    "circuit.shared_hit_rate",
                    circuit_stats["shared_hit_rate"],
                )
                span.set_attribute("circuit.reused", reused_circuits)
        with tracer.span("policy.filter", threshold=threshold) as span:
            released: list[int] = []
            withheld: list[int] = []
            for position, confidence in enumerate(confidences):
                if confidence > threshold:
                    released.append(position)
                else:
                    withheld.append(position)
            span.set_attribute("released", len(released))
            span.set_attribute("withheld", len(withheld))
        metrics = get_metrics()
        if compiled:
            metrics.counter(
                "circuit.pool_reuses" if reused_circuits else "circuit.pool_compiles"
            ).inc()
        metrics.counter("policy.rows_evaluated").inc(len(confidences))
        metrics.counter("policy.rows_released").inc(len(released))
        metrics.counter("policy.rows_withheld").inc(len(withheld))
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "threshold %.3f released %d/%d row(s)",
                threshold,
                len(released),
                len(confidences),
            )
        return FilterOutcome(
            threshold,
            OutcomeSide(result, released, [confidences[i] for i in released]),
            OutcomeSide(result, withheld, [confidences[i] for i in withheld]),
        )
