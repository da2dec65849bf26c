"""Random cost-model factory for synthetic workloads.

The paper's experiments assign each base tuple "a cost function ...; the
types of cost functions include the binomial, exponential and logarithm
functions" (§5.1).  :class:`CostModelSampler` reproduces that setup: given a
seeded :class:`random.Random` it draws a family uniformly (weights are
configurable) and then draws that family's parameters from calibrated ranges
so the three families produce costs of comparable magnitude over ``[0, 1]``.
"""

from __future__ import annotations

import random
from typing import Mapping

from ..errors import ReproError
from .functions import (
    BinomialCost,
    CostModel,
    ExponentialCost,
    LinearCost,
    LogarithmicCost,
)

__all__ = ["CostModelSampler"]

_DEFAULT_WEIGHTS: dict[str, float] = {
    "binomial": 1.0,
    "exponential": 1.0,
    "logarithmic": 1.0,
}

_KNOWN_FAMILIES = ("linear", "binomial", "exponential", "logarithmic")


class CostModelSampler:
    """Draws random :class:`~repro.cost.CostModel` instances.

    Parameters
    ----------
    weights:
        Relative probability of each family.  Keys must be a subset of
        ``{"linear", "binomial", "exponential", "logarithmic"}``.  Defaults to
        the paper's three families, equally likely.
    base_scale:
        Multiplies every drawn cost; use it to move the whole workload's cost
        scale (the paper reports costs in the hundreds-to-thousands range).
    max_confidence_range:
        Interval the per-tuple confidence cap is drawn from.  The paper notes
        some tuples cannot reach confidence 1 ("its maximum possible
        confidence level", §4.1); default keeps most tuples cappable at 1.
    """

    def __init__(
        self,
        weights: Mapping[str, float] | None = None,
        base_scale: float = 1.0,
        max_confidence_range: tuple[float, float] = (0.9, 1.0),
    ) -> None:
        chosen = dict(_DEFAULT_WEIGHTS if weights is None else weights)
        unknown = set(chosen) - set(_KNOWN_FAMILIES)
        if unknown:
            raise ReproError(
                f"unknown cost families: {sorted(unknown)}", code="CostModelError"
            )
        if not chosen or all(weight <= 0 for weight in chosen.values()):
            raise ReproError(
                "at least one family must have positive weight", code="CostModelError"
            )
        if base_scale <= 0:
            raise ReproError(
                f"base_scale must be positive, got {base_scale}", code="CostModelError"
            )
        low, high = max_confidence_range
        if not 0.0 < low <= high <= 1.0:
            raise ReproError(
                f"max_confidence_range must satisfy 0 < low <= high <= 1, "
                f"got {max_confidence_range}",
                code="CostModelError",
            )
        self._families = [family for family, weight in chosen.items() if weight > 0]
        self._weights = [chosen[family] for family in self._families]
        self._base_scale = float(base_scale)
        self._cap_range = (float(low), float(high))

    def sample(self, rng: random.Random) -> CostModel:
        """Draw one cost model using *rng* for all randomness."""
        family = rng.choices(self._families, weights=self._weights, k=1)[0]
        cap = rng.uniform(*self._cap_range)
        scale = self._base_scale
        if family == "linear":
            return LinearCost(rate=scale * rng.uniform(20.0, 200.0), max_confidence=cap)
        if family == "binomial":
            return BinomialCost(
                linear=scale * rng.uniform(10.0, 80.0),
                quadratic=scale * rng.uniform(20.0, 150.0),
                max_confidence=cap,
            )
        if family == "exponential":
            return ExponentialCost(
                scale=scale * rng.uniform(2.0, 15.0),
                shape=rng.uniform(2.0, 4.0),
                max_confidence=cap,
            )
        if family == "logarithmic":
            return LogarithmicCost(
                scale=scale * rng.uniform(15.0, 90.0),
                saturation=rng.uniform(0.85, 0.98),
                max_confidence=cap,
            )
        raise ReproError(  # pragma: no cover
            f"unhandled family {family!r}", code="CostModelError"
        )
