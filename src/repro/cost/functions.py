"""Cost-of-confidence models.

The paper assumes "each data item in the database is associated with a cost
function that indicates the cost for improving the confidence value of this
data item" (§1), and the experiments draw cost functions from three families:
binomial, exponential and logarithm (§5.1).

A cost model maps an *absolute* confidence value ``p`` in ``[0, max_confidence]``
to a cumulative acquisition cost ``c(p)``; the cost of an *increment* from
``p`` to ``p*`` is ``c(p*) − c(p)``.  All models are strictly increasing in
``p`` on their domain so increments always cost a positive amount.

Models
------
* :class:`LinearCost` — ``c(p) = rate · p``; constant marginal cost.
* :class:`BinomialCost` — ``c(p) = a·p + b·p²`` (the paper's "binomial",
  i.e. a degree-2 polynomial); marginal cost grows linearly.
* :class:`ExponentialCost` — ``c(p) = scale · (e^{shape·p} − 1)``; marginal
  cost explodes near certainty.
* :class:`LogarithmicCost` — ``c(p) = −scale · ln(1 − p·(1−floor))`` style
  curve; cheap at first, unbounded as ``p → 1`` (here implemented as
  ``−scale · ln(1 − saturation·p)`` with ``saturation < 1`` so cost stays
  finite at ``p = 1``).
* :class:`TabulatedCost` — piecewise-linear interpolation of measured
  ``(p, cost)`` points, for calibrating against a real acquisition process.

Every model carries a ``max_confidence`` cap: some data can never be verified
to certainty (§4.1 "1 (or its maximum possible confidence level)").
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import ReproError

__all__ = [
    "CostModel",
    "LinearCost",
    "BinomialCost",
    "ExponentialCost",
    "LogarithmicCost",
    "TabulatedCost",
    "FreeCost",
]

_EPS = 1e-12


class CostModel:
    """Base class for cost-of-confidence models.

    Subclasses implement :meth:`cumulative`; increment costs, validation and
    the ``max_confidence`` cap are shared here.
    """

    def __init__(self, max_confidence: float = 1.0) -> None:
        if not 0.0 < max_confidence <= 1.0:
            raise ReproError(
                f"max_confidence must be in (0, 1], got {max_confidence}",
                code="CostModelError",
            )
        self._max_confidence = float(max_confidence)

    @property
    def max_confidence(self) -> float:
        """The highest confidence this data item can ever be raised to."""
        return self._max_confidence

    def cumulative(self, confidence: float) -> float:
        """Cumulative cost of holding *confidence* (0 at confidence 0)."""
        raise NotImplementedError

    def increment_cost(self, current: float, target: float) -> float:
        """Cost of raising confidence from *current* to *target*.

        Raises
        ------
        CostModelError
            If *target* < *current*, either value is outside ``[0, 1]``, or
            *target* exceeds :attr:`max_confidence`.
        """
        self._check_range(current, "current")
        self._check_range(target, "target")
        if target > self._max_confidence + _EPS:
            raise ReproError(
                f"target {target} exceeds max confidence {self._max_confidence}",
                code="CostModelError",
            )
        if target < current - _EPS:
            raise ReproError(
                f"target {target} is below current confidence {current}",
                code="CostModelError",
            )
        return max(0.0, self.cumulative(target) - self.cumulative(current))

    def marginal_cost(self, current: float, delta: float) -> float:
        """Cost of one increment step of size *delta* from *current*.

        The step is clamped at :attr:`max_confidence`; stepping from at-or-
        above the cap costs ``inf`` (the increment is impossible), which lets
        greedy gain computations rank capped tuples last without special
        cases.
        """
        if current >= self._max_confidence - _EPS:
            return math.inf
        target = min(current + delta, self._max_confidence)
        return self.increment_cost(current, target)

    @staticmethod
    def _check_range(value: float, label: str) -> None:
        if not 0.0 <= value <= 1.0 + _EPS:
            raise ReproError(
                f"{label} confidence {value} outside [0, 1]", code="CostModelError"
            )

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"{type(self).__name__}(max_confidence={self._max_confidence})"


class FreeCost(CostModel):
    """A zero-cost model; useful in tests and for already-verified data."""

    def cumulative(self, confidence: float) -> float:
        return 0.0


class LinearCost(CostModel):
    """``c(p) = rate · p`` — constant marginal cost per unit of confidence."""

    def __init__(self, rate: float, max_confidence: float = 1.0) -> None:
        super().__init__(max_confidence)
        if rate < 0:
            raise ReproError(
                f"rate must be non-negative, got {rate}", code="CostModelError"
            )
        self.rate = float(rate)

    def cumulative(self, confidence: float) -> float:
        return self.rate * confidence

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"LinearCost(rate={self.rate}, max_confidence={self.max_confidence})"


class BinomialCost(CostModel):
    """``c(p) = linear·p + quadratic·p²`` — the paper's "binomial" family."""

    def __init__(
        self,
        linear: float,
        quadratic: float,
        max_confidence: float = 1.0,
    ) -> None:
        super().__init__(max_confidence)
        if linear < 0 or quadratic < 0:
            raise ReproError(
                f"coefficients must be non-negative, got {linear}, {quadratic}",
                code="CostModelError",
            )
        if linear == 0 and quadratic == 0:
            raise ReproError(
                "binomial cost must have a positive coefficient", code="CostModelError"
            )
        self.linear = float(linear)
        self.quadratic = float(quadratic)

    def cumulative(self, confidence: float) -> float:
        return self.linear * confidence + self.quadratic * confidence * confidence

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"BinomialCost(linear={self.linear}, quadratic={self.quadratic}, "
            f"max_confidence={self.max_confidence})"
        )


class ExponentialCost(CostModel):
    """``c(p) = scale · (e^{shape·p} − 1)`` — sharply rising marginal cost."""

    def __init__(
        self,
        scale: float,
        shape: float = 3.0,
        max_confidence: float = 1.0,
    ) -> None:
        super().__init__(max_confidence)
        if scale <= 0 or shape <= 0:
            raise ReproError(
                f"scale and shape must be positive, got {scale}, {shape}",
                code="CostModelError",
            )
        self.scale = float(scale)
        self.shape = float(shape)

    def cumulative(self, confidence: float) -> float:
        return self.scale * (math.exp(self.shape * confidence) - 1.0)

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"ExponentialCost(scale={self.scale}, shape={self.shape}, "
            f"max_confidence={self.max_confidence})"
        )


class LogarithmicCost(CostModel):
    """``c(p) = −scale · ln(1 − saturation·p)`` — diminishing-returns curve.

    With ``saturation`` strictly below 1 the cost stays finite at ``p = 1``;
    as ``saturation → 1`` certainty becomes arbitrarily expensive, modelling
    data that can be made very likely but never certain at bounded cost.
    """

    def __init__(
        self,
        scale: float,
        saturation: float = 0.95,
        max_confidence: float = 1.0,
    ) -> None:
        super().__init__(max_confidence)
        if scale <= 0:
            raise ReproError(
                f"scale must be positive, got {scale}", code="CostModelError"
            )
        if not 0.0 < saturation < 1.0:
            raise ReproError(
                f"saturation must be in (0, 1), got {saturation}",
                code="CostModelError",
            )
        self.scale = float(scale)
        self.saturation = float(saturation)

    def cumulative(self, confidence: float) -> float:
        return -self.scale * math.log(1.0 - self.saturation * confidence)

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"LogarithmicCost(scale={self.scale}, saturation={self.saturation}, "
            f"max_confidence={self.max_confidence})"
        )


class TabulatedCost(CostModel):
    """Piecewise-linear cost through measured ``(confidence, cost)`` points.

    Points must be sorted by confidence with strictly increasing costs; the
    first point's confidence acts as a free floor (cost 0 below it), and the
    last point's confidence becomes the model's :attr:`max_confidence` unless
    a lower cap is supplied.
    """

    def __init__(
        self,
        points: Sequence[tuple[float, float]],
        max_confidence: float | None = None,
    ) -> None:
        if len(points) < 2:
            raise ReproError(
                "tabulated cost needs at least two points", code="CostModelError"
            )
        confidences = [p for p, _ in points]
        costs = [c for _, c in points]
        if any(b <= a for a, b in zip(confidences, confidences[1:])):
            raise ReproError(
                "tabulated confidences must strictly increase", code="CostModelError"
            )
        if any(b < a for a, b in zip(costs, costs[1:])):
            raise ReproError(
                "tabulated costs must be non-decreasing", code="CostModelError"
            )
        if not (0.0 <= confidences[0] and confidences[-1] <= 1.0):
            raise ReproError(
                "tabulated confidences must lie in [0, 1]", code="CostModelError"
            )
        cap = confidences[-1] if max_confidence is None else max_confidence
        super().__init__(min(cap, confidences[-1]))
        self._points = [(float(p), float(c)) for p, c in points]

    def cumulative(self, confidence: float) -> float:
        points = self._points
        if confidence <= points[0][0]:
            return points[0][1]
        for (p0, c0), (p1, c1) in zip(points, points[1:]):
            if confidence <= p1:
                fraction = (confidence - p0) / (p1 - p0)
                return c0 + fraction * (c1 - c0)
        return points[-1][1]

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"TabulatedCost({self._points!r})"
