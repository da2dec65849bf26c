"""Per-result confidence functions.

The strategy-finding algorithms (paper §4) treat each intermediate result's
confidence as a function ``F(p1, …, pk)`` of its base tuples' confidences and
evaluate it thousands of times while exploring candidate increments.
:class:`ConfidenceFunction` is that function: the result's lineage compiled
once into an arithmetic circuit (:mod:`repro.lineage.circuit`) and answered
by one forward sweep, behind

* a stable, sorted tuple of the variables it depends on;
* bounded LRU memoization keyed on the *values* of exactly those variables,
  so re-probes under a global assignment where unrelated tuples changed hit
  the cache without the cache ever growing past :data:`CACHE_SIZE` entries.

Passing a shared :class:`~repro.lineage.circuit.CircuitPool` makes every
function of one query intern common subformulas once.  The increment
solvers route every probe, commit and undo through :meth:`at` (see
:class:`~repro.increment.problem.SearchState`); the reference that tests
compare it against is :func:`~repro.lineage.probability.probability`.
"""

from __future__ import annotations

from typing import Mapping

from ..obs import get_metrics
from ..storage.tuples import TupleId
from .circuit import CircuitPool
from .formula import Lineage, node_count
from .probability import pick

__all__ = ["ConfidenceFunction", "CACHE_SIZE"]

#: Upper bound on memoized evaluations per function (both generations
#: together).  Eviction is generational LRU: when the young generation
#: fills up it *becomes* the old one, and old entries are promoted back on
#: hit — so a long solver search keeps its working set warm without the
#: cache ever growing unboundedly, and without paying per-hit reordering
#: on the solvers' hottest path.
CACHE_SIZE = 4096
_HALF_CACHE = CACHE_SIZE // 2


class ConfidenceFunction:
    """One result tuple's confidence ``F(p_λ01, …, p_λ0k)``: its lineage,
    compiled once into an arithmetic circuit so repeated evaluation under
    changing assignments is cheap arithmetic.

    Parameters
    ----------
    formula:
        The result's lineage.
    label:
        Optional display name (e.g. the result tuple's identifier).
    pool:
        Circuit pool to compile into.  Pass one pool for all results of a
        query so common subformulas are interned once; by default each
        function gets a private pool.
    """

    __slots__ = (
        "formula",
        "label",
        "circuit",
        "variables",
        "_sweep",
        "_cache",
        "_cache_old",
    )

    def __init__(
        self,
        formula: Lineage,
        label: str | None = None,
        *,
        pool: CircuitPool | None = None,
    ) -> None:
        self.formula = formula
        self.label = label
        #: The base tuples this result depends on, in sorted order.
        variables = self.variables = tuple(sorted(formula.variables))
        self._cache: dict[tuple[float, ...], float] = {}
        self._cache_old: dict[tuple[float, ...], float] = {}
        if pool is None:  # an empty shared pool is falsy — test identity
            pool = CircuitPool()
        circuit = self.circuit = pool.compile(formula)
        self._sweep = circuit.sweep
        if circuit.support != variables:
            # Simplification dropped variables from the circuit (absorption,
            # x AND NOT x): project the key onto what the sweep reads.
            kept = [variables.index(tid) for tid in circuit.support]
            self._sweep = lambda key: circuit.sweep([key[i] for i in kept])
        # Formula shape drives confidence-computation cost (Koch & Olteanu);
        # record it once per result at compile time.
        metrics = get_metrics()
        metrics.histogram("lineage.formula_nodes").observe(node_count(formula))
        metrics.histogram("lineage.formula_variables").observe(len(variables))
        metrics.histogram("circuit.cone_nodes").observe(len(self.circuit))

    def arity(self) -> int:
        return len(self.variables)

    def evaluate(self, assignment: Mapping[TupleId, float]) -> float:
        """``F`` under *assignment* (which may also cover unrelated tuples)."""
        return self.at(pick(assignment, self.variables))

    def at(self, key: tuple[float, ...]) -> float:
        """``F`` with ``variables[i]`` at ``key[i]`` — the positional form the
        solvers call: *key* is the cache key and the sweep's input at once."""
        cache = self._cache
        cached = cache.get(key)
        if cached is not None:
            return cached
        value = self._cache_old.get(key)  # a warm entry is promoted
        if value is None:
            value = self._sweep(key)
        if len(cache) >= _HALF_CACHE:
            self._cache_old = cache
            cache = self._cache = {}
        cache[key] = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - display only
        name = self.label or "F"
        return f"ConfidenceFunction({name}, arity={self.arity()})"
