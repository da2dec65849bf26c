"""Exact probability of a lineage formula under tuple independence.

Base tuples are assumed independent (as in Trio / Dalvi-Suciu probabilistic
databases, which the paper builds on).  The probability of a formula is then
well defined and computed by :func:`probability` with three rules, tried in
order:

1. **Structural base cases** — constants, single variables, negation
   (``P(¬f) = 1 − P(f)``).
2. **Independence decomposition** — if the children of an AND/OR can be
   grouped into variable-disjoint clusters, the clusters are independent
   events: ``P(AND) = Π P(cluster)`` and ``P(OR) = 1 − Π (1 − P(cluster))``.
   Read-once formulas (every variable appears once), which dominate in
   practice, are evaluated in linear time by this rule alone.
3. **Shannon expansion** — otherwise pick the variable shared by the most
   children and condition on it:
   ``P(f) = p·P(f|v=1) + (1−p)·P(f|v=0)``.  Cofactors simplify (restrict
   folds constants), and a per-call memo table keyed on the simplified
   formula avoids recomputing shared cofactors.

Worst case is exponential (#P-hard problem), but lineages from SPJU queries
over the paper's workloads stay small.

:func:`probability` interprets the formula directly and range-checks its
inputs; the product computes the same value from a compiled circuit
(:mod:`repro.lineage.circuit`, bit-identical) and every differential test
uses this module as the reference.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from ..errors import ReproError
from ..storage.tuples import TupleId
from .formula import And, Bottom, Lineage, Not, Or, Top, Var, restrict

__all__ = ["probability"]

ProbabilityMap = Mapping[TupleId, float]


def _missing(tid: TupleId) -> ReproError:
    return ReproError(
        f"no probability supplied for base tuple {tid}", code="LineageError"
    )


def pick(probabilities: ProbabilityMap, tids: tuple[TupleId, ...]) -> tuple:
    """The probabilities of *tids*, positionally; a missing one is an error."""
    try:
        return tuple(map(probabilities.__getitem__, tids))
    except KeyError as error:
        raise _missing(error.args[0]) from None


def _check_probability(tid: TupleId, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ReproError(
            f"probability {value} of {tid} outside [0, 1]", code="LineageError"
        )
    return value


def _independent_clusters(children: tuple[Lineage, ...]) -> list[list[Lineage]]:
    """Group children into variable-disjoint clusters (union-find)."""
    parent = list(range(len(children)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    owner: dict[TupleId, int] = {}
    for index, child in enumerate(children):
        for tid in child.variables:
            if tid in owner:
                union(owner[tid], index)
            else:
                owner[tid] = index

    clusters: dict[int, list[Lineage]] = {}
    for index, child in enumerate(children):
        clusters.setdefault(find(index), []).append(child)
    return list(clusters.values())


def _pick_branch_variable(children: tuple[Lineage, ...]) -> TupleId:
    """The variable occurring in the most children (ties by ordering)."""
    counts: Counter[TupleId] = Counter()
    for child in children:
        counts.update(child.variables)
    # max by (count, tid) — deterministic for reproducible run times
    return max(counts, key=lambda tid: (counts[tid], tid))


def _rebuild_connective(node: Lineage, cluster: list[Lineage]) -> Lineage:
    """The AND/OR of one independent *cluster* of *node*'s children."""
    if len(cluster) == 1:
        return cluster[0]
    if isinstance(node, And):
        return And(tuple(cluster))
    return Or(tuple(cluster))


def probability(formula: Lineage, probabilities: ProbabilityMap) -> float:
    """Exact ``P(formula)`` given independent base-tuple *probabilities*.

    Raises ``LineageError`` if a variable is missing from
    *probabilities* or a probability is out of range.
    """
    memo: dict[Lineage, float] = {}

    def lookup(tid: TupleId) -> float:
        try:
            return _check_probability(tid, probabilities[tid])
        except KeyError:
            raise _missing(tid) from None

    def prob(node: Lineage) -> float:
        cached = memo.get(node)
        if cached is not None:
            return cached
        result = _prob_uncached(node)
        memo[node] = result
        return result

    def _prob_uncached(node: Lineage) -> float:
        if isinstance(node, Top):
            return 1.0
        if isinstance(node, Bottom):
            return 0.0
        if isinstance(node, Var):
            return lookup(node.tid)
        if isinstance(node, Not):
            return 1.0 - prob(node.child)
        if isinstance(node, (And, Or)):
            clusters = _independent_clusters(node.children)
            if len(clusters) > 1 or all(len(c) == 1 for c in clusters):
                # Independent clusters: combine by product / inclusion of
                # complements.  (The all-singletons case also lands here.)
                if isinstance(node, And):
                    result = 1.0
                    for cluster in clusters:
                        result *= prob(_rebuild_connective(node, cluster))
                    return result
                result = 1.0
                for cluster in clusters:
                    result *= 1.0 - prob(_rebuild_connective(node, cluster))
                return 1.0 - result
            # One entangled cluster: Shannon-expand on the busiest variable.
            branch = _pick_branch_variable(node.children)
            p = lookup(branch)
            high = prob(restrict(node, branch, True))
            low = prob(restrict(node, branch, False))
            return p * high + (1.0 - p) * low
        raise ReproError(  # pragma: no cover
            f"cannot evaluate {node!r}", code="LineageError"
        )

    value = prob(formula)
    # Clamp tiny float drift so callers can rely on [0, 1].
    return min(1.0, max(0.0, value))

