"""Lineage formulas and confidence computation (paper element 2).

Query results carry boolean lineage over base tuples; confidence is the
probability of the lineage under tuple independence.  Exact evaluation uses
independence decomposition plus Shannon expansion, compiled once per query
into shared arithmetic circuits (:mod:`repro.lineage.circuit`) and answered
by one forward sweep; :func:`probability` is one formula compiled into a
pool of its own, with its inputs range-checked.
"""

from .circuit import CircuitPool, CompiledCircuit, probability
from .confidence import ConfidenceFunction
from .formula import (
    BOTTOM,
    TOP,
    And,
    Bottom,
    Lineage,
    Not,
    Or,
    Top,
    Var,
    lineage_and,
    lineage_not,
    lineage_or,
    node_count,
    restrict,
    var,
)

__all__ = [
    "Lineage",
    "Var",
    "And",
    "Or",
    "Not",
    "Top",
    "Bottom",
    "TOP",
    "BOTTOM",
    "var",
    "lineage_and",
    "lineage_or",
    "lineage_not",
    "restrict",
    "node_count",
    "probability",
    "ConfidenceFunction",
    "CircuitPool",
    "CompiledCircuit",
]
