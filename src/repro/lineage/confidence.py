"""Per-result confidence functions.

The strategy-finding algorithms (paper §4) treat each intermediate result's
confidence as a function ``F(p1, …, pk)`` of its base tuples' confidences and
evaluate it thousands of times while exploring candidate increments.
:class:`ConfidenceFunction` is that function, in one of two forms chosen by
what the result is:

* a **product** — a join row of pairwise-different base tuples, given as
  those tuples in factor order or as a ``Var`` / an ``And`` of
  pairwise-distinct ``Var``\\ s — is ``1.0 · p₁ · … · pₖ`` left to right:
  the ``MUL`` its circuit would sweep, in child order, with no circuit and
  no memo (multiplying k floats costs less than hashing the key).  Its
  formula and circuit are built when first read;
* anything else is the result's lineage compiled once into an arithmetic
  circuit (:mod:`repro.lineage.circuit`) and answered by one forward
  sweep, behind bounded LRU memoization keyed on the *values* of exactly
  the variables it depends on, so re-probes under a global assignment
  where unrelated tuples changed hit the cache without the cache ever
  growing past :data:`CACHE_SIZE` entries.

Passing a shared :class:`~repro.lineage.circuit.CircuitPool` makes every
compiled function of one query intern common subformulas once.  The
increment solvers route every probe, commit and undo through what
:meth:`~ConfidenceFunction.keyed` hands them — :meth:`at`, or for a product
the product itself (see
:class:`~repro.increment.problem.SearchState`); tests hold both to
possible-worlds enumeration, and to a fresh pool's circuit bit for bit.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Mapping, Sequence

from ..errors import ReproError
from ..obs import get_metrics
from ..storage.tuples import TupleId
from .circuit import CircuitPool, CompiledCircuit, pick
from .formula import And, Lineage, Var, lineage_and, node_count

__all__ = ["ConfidenceFunction", "CACHE_SIZE"]

#: Upper bound on memoized evaluations per function (both generations
#: together).  Eviction is generational LRU: when the young generation
#: fills up it *becomes* the old one, and old entries are promoted back on
#: hit — so a long solver search keeps its working set warm without the
#: cache ever growing unboundedly, and without paying per-hit reordering
#: on the solvers' hottest path.
CACHE_SIZE = 4096
_HALF_CACHE = CACHE_SIZE // 2


def _product_factors(formula: Lineage) -> tuple[TupleId, ...] | None:
    """The tuples *formula* multiplies, in child order, when it is a
    ``Var`` or an ``And`` of pairwise-distinct ``Var``\\ s — the formulas
    the compiler turns into one ``MUL`` over ``VAR`` leaves (or the leaf
    alone) — else ``None``."""
    if type(formula) is Var:
        return (formula.tid,)
    if type(formula) is And:
        children = formula.children
        if len(formula.variables) == len(children) and all(
            type(child) is Var for child in children
        ):
            return tuple([child.tid for child in children])
    return None


class ConfidenceFunction:
    """One result tuple's confidence ``F(p_λ01, …, p_λ0k)``.

    Parameters
    ----------
    source:
        The result's lineage, or the base tuples it is the product of, in
        factor order (pairwise different).
    label:
        Optional display name (e.g. the result tuple's identifier).
    pool:
        Circuit pool to compile into.  Pass one pool for all results of a
        query so common subformulas are interned once; by default each
        function gets a private pool.  A product compiles into it only if
        its :attr:`circuit` is read.
    """

    __slots__ = (
        "label",
        "variables",
        "factors",
        "_formula",
        "_pool",
        "_circuit",
        "_sweep",
        "_cache",
        "_cache_old",
    )

    def __init__(
        self,
        source: Lineage | Sequence[TupleId],
        label: str | None = None,
        *,
        pool: CircuitPool | None = None,
    ) -> None:
        self.label = label
        self._circuit: CompiledCircuit | None = None
        if isinstance(source, Lineage):
            self._formula: Lineage | None = source
            factors = _product_factors(source)
        else:
            self._formula = None
            factors = tuple(source)
            if not factors or len(set(factors)) != len(factors):
                raise ReproError(
                    f"a product needs pairwise-different base tuples, "
                    f"got {list(map(str, factors))}",
                    code="LineageError",
                )
        #: The base tuples a product multiplies, in factor order (``None``
        #: for a compiled function).
        self.factors = factors
        if factors is not None:
            #: The base tuples this result depends on, in sorted order.
            self.variables = tuple(sorted(factors))
            self._pool = pool  # compiled into if the circuit is ever read
            return
        variables = self.variables = tuple(sorted(source.variables))
        self._cache: dict[tuple[float, ...], float] = {}
        self._cache_old: dict[tuple[float, ...], float] = {}
        if pool is None:  # an empty shared pool is falsy — test identity
            pool = CircuitPool()
        circuit = self._circuit = pool.compile(source)
        self._sweep = circuit.sweep
        if circuit.support != variables:
            # Simplification dropped variables from the circuit (absorption,
            # x AND NOT x): project the key onto what the sweep reads.
            kept = [variables.index(tid) for tid in circuit.support]
            self._sweep = lambda key: circuit.sweep([key[i] for i in kept])
        # Formula shape drives confidence-computation cost (Koch & Olteanu);
        # record it once per compiled result.
        metrics = get_metrics()
        metrics.histogram("lineage.formula_nodes").observe(node_count(source))
        metrics.histogram("lineage.formula_variables").observe(len(variables))
        metrics.histogram("circuit.cone_nodes").observe(len(circuit))

    @property
    def formula(self) -> Lineage:
        """The result's lineage (a product's ``And`` is built on first read)."""
        if self._formula is None:
            self._formula = lineage_and(*map(Var, self.factors))
        return self._formula

    @property
    def circuit(self) -> CompiledCircuit:
        """The compiled lineage (a product compiles on first read)."""
        if self._circuit is None:
            pool = CircuitPool() if self._pool is None else self._pool
            self._circuit = pool.compile(self.formula)
            self._pool = None
        return self._circuit

    def arity(self) -> int:
        return len(self.variables)

    def keyed(
        self,
    ) -> tuple[tuple[TupleId, ...], Callable[[tuple[float, ...]], float]]:
        """How a solver computes ``F`` off a positional assignment: the base
        tuples whose values make its key, in order, and the function of that
        key.  A product is its factors and the product itself, from 1 in
        factor order — what its ``MUL`` computes — so a probe adds no Python
        frame; anything else, a subclass that answers :meth:`at` its own way
        included, is :attr:`variables` and :meth:`at`."""
        if self.factors is not None and type(self).at is ConfidenceFunction.at:
            return self.factors, prod
        return self.variables, self.at

    def evaluate(self, assignment: Mapping[TupleId, float]) -> float:
        """``F`` under *assignment* (which may also cover unrelated tuples)."""
        if self.factors is not None:
            return prod(pick(assignment, self.factors), start=1.0)
        return self.at(pick(assignment, self.variables))

    def at(self, key: tuple[float, ...]) -> float:
        """``F`` with ``variables[i]`` at ``key[i]`` — the positional form the
        solvers call: *key* is the cache key and the sweep's input at once."""
        if self.factors is not None:
            return self.evaluate(dict(zip(self.variables, key)))
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
