"""A confidence oracle that shares no code with the engine."""

from __future__ import annotations

import itertools


def possible_worlds(formula, probs) -> float:
    """``P(formula)`` by enumerating all 2ⁿ worlds of its n variables, each
    weighted by the variables' independent probabilities."""
    variables = sorted(formula.variables)
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(variables)):
        weight = 1.0
        for tid, bit in zip(variables, bits):
            weight *= probs[tid] if bit else 1.0 - probs[tid]
        if weight and formula.evaluate(dict(zip(variables, bits))):
            total += weight
    return total


#: How far an exact confidence may sit from :func:`possible_worlds`, which
#: sums the same probability in a different order.
TOLERANCE = 1e-12


def close_to_worlds(value: float, formula, probs) -> bool:
    """Whether *value* is ``P(formula)`` up to float rounding."""
    return abs(value - possible_worlds(formula, probs)) <= TOLERANCE
