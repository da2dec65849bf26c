"""Arithmetic circuits compiled from lineage formulas.

The one way a confidence is computed.  A :class:`CircuitPool` compiles
lineage formulas — by the same independence-decomposition and
Shannon-expansion steps as :func:`~repro.lineage.probability.probability`
— into flat arithmetic-circuit nodes that are *interned*: structurally
equal subcircuits are stored once and shared across every formula compiled
into the pool (one pool per query, so a result set with overlapping
derivations pays for each common subformula once).

Compile once, then evaluate by one **forward sweep**:
:meth:`CompiledCircuit.evaluate` computes ``P(F)`` over the root's cone in
topological (= creation) order, and :meth:`CircuitPool.evaluate_many`
sweeps the union of many cones once for a whole result batch.  There is no
second evaluator: the increment solvers re-run the same sweep behind
:class:`~repro.lineage.confidence.ConfidenceFunction`'s cache.

Node semantics mirror the reference interpreter operation for operation
(products left to right, OR as ``1 − Π(1 − x)``, Shannon as
``p·high + (1−p)·low``), so circuit values are bit-identical to
:func:`~repro.lineage.probability.probability`, which every differential
test compares against.  Unlike the reference, a sweep does not range-check
its inputs (the storage layer guarantees [0, 1]).

The pool is single-threaded by design (the scratch buffer is reused across
calls), matching the rest of the engine.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import LineageError
from ..storage.tuples import TupleId
from .formula import And, Bottom, Lineage, Not, Or, Top, Var, restrict
from .probability import (
    ProbabilityMap,
    _independent_clusters,
    _pick_branch_variable,
    _rebuild_connective,
)

__all__ = ["CircuitPool", "CompiledCircuit"]

# Node kinds.  Children are node indexes; a node's index is always larger
# than its children's (creation order == topological order).
CONST = 0  # arg: float value
VAR = 1  # arg: TupleId
MUL = 2  # arg: tuple of child indexes — product
NOT = 3  # arg: child index — 1 − child
LERP = 4  # arg: (var, high, low) — var·high + (1 − var)·low


def _missing(tid: TupleId) -> LineageError:
    return LineageError(f"no probability supplied for base tuple {tid}")


class CircuitPool:
    """A growable, interned store of arithmetic-circuit nodes.

    All formulas of one query (result set / increment problem) compile into
    the same pool; the intern table makes shared subformulas — and shared
    sub-*circuits* exposed only after decomposition — single nodes, which
    every downstream pass then evaluates once.
    """

    __slots__ = (
        "_kinds",
        "_args",
        "_intern",
        "_formula_memo",
        "_variables",
        "_scratch",
        "intern_hits",
        "formula_hits",
        "lookups",
    )

    def __init__(self) -> None:
        self._kinds: list[int] = []
        self._args: list = []
        self._intern: dict[tuple, int] = {}
        self._formula_memo: dict[Lineage, int] = {}
        self._variables = 0
        self._scratch: list[float] = []
        #: Node-construction requests answered from the intern table.
        self.intern_hits = 0
        #: Formula compilations answered from the cross-formula memo.
        self.formula_hits = 0
        #: Total node-construction requests (hit rate = hits / lookups).
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._kinds)

    @property
    def shared_hit_rate(self) -> float:
        """Fraction of node requests resolved by sharing."""
        if self.lookups == 0:
            return 0.0
        return (self.intern_hits + self.formula_hits) / (
            self.lookups + self.formula_hits
        )

    # -- node construction (interned) --------------------------------------

    def _node(self, kind: int, arg) -> int:
        self.lookups += 1
        key = (kind, arg)
        index = self._intern.get(key)
        if index is not None:
            self.intern_hits += 1
            return index
        index = len(self._kinds)
        self._kinds.append(kind)
        self._args.append(arg)
        self._intern[key] = index
        if kind == VAR:
            self._variables += 1
        return index

    # -- compilation --------------------------------------------------------

    def compile(self, formula: Lineage) -> "CompiledCircuit":
        """Compile *formula* into the pool and return its root handle."""
        root = self._compile_formula(formula)
        return CompiledCircuit(self, root)

    def _compile_formula(self, node: Lineage) -> int:
        cached = self._formula_memo.get(node)
        if cached is not None:
            self.formula_hits += 1
            return cached
        index = self._compile_uncached(node)
        self._formula_memo[node] = index
        return index

    def _compile_uncached(self, node: Lineage) -> int:
        if isinstance(node, Top):
            return self._node(CONST, 1.0)
        if isinstance(node, Bottom):
            return self._node(CONST, 0.0)
        if isinstance(node, Var):
            return self._node(VAR, node.tid)
        if isinstance(node, Not):
            return self._node(NOT, self._compile_formula(node.child))
        if isinstance(node, (And, Or)):
            clusters = _independent_clusters(node.children)
            if len(clusters) > 1 or all(len(c) == 1 for c in clusters):
                parts = [
                    self._compile_formula(_rebuild_connective(node, cluster))
                    for cluster in clusters
                ]
                if isinstance(node, And):
                    return self._product(parts)
                complements = [self._node(NOT, part) for part in parts]
                return self._node(NOT, self._product(complements))
            branch = _pick_branch_variable(node.children)
            high = self._compile_formula(restrict(node, branch, True))
            low = self._compile_formula(restrict(node, branch, False))
            return self._node(LERP, (self._node(VAR, branch), high, low))
        raise LineageError(f"cannot compile {node!r}")  # pragma: no cover

    def _product(self, parts: list[int]) -> int:
        if len(parts) == 1:
            return parts[0]
        return self._node(MUL, tuple(parts))

    # -- forward sweep -------------------------------------------------------

    def _values_buffer(self) -> list[float]:
        if len(self._scratch) < len(self._kinds):
            self._scratch.extend(
                [0.0] * (len(self._kinds) - len(self._scratch))
            )
        return self._scratch

    def _forward(
        self,
        order: Sequence[int],
        values: list[float],
        assignment: ProbabilityMap,
    ) -> None:
        """One forward sweep writing each node of *order* into *values*."""
        kinds = self._kinds
        args = self._args
        for index in order:
            kind = kinds[index]
            arg = args[index]
            if kind == VAR:
                try:
                    values[index] = assignment[arg]
                except KeyError:
                    raise _missing(arg) from None
            elif kind == MUL:
                product = 1.0
                for child in arg:
                    product *= values[child]
                values[index] = product
            elif kind == NOT:
                values[index] = 1.0 - values[arg]
            elif kind == LERP:
                p = values[arg[0]]
                values[index] = (
                    p * values[arg[1]] + (1.0 - p) * values[arg[2]]
                )
            else:  # CONST
                values[index] = arg

    # -- batch evaluation ----------------------------------------------------

    def merged_order(
        self, circuits: Sequence["CompiledCircuit"]
    ) -> tuple[int, ...]:
        """Topological order of the union of the circuits' cones.

        Node indexes are created children-first, so ascending index order
        is a valid topological order of any node subset; callers can cache
        the result and hand it back to :meth:`evaluate_many` for repeated
        batch sweeps over the same result set.
        """
        union: set[int] = set()
        for circuit in circuits:
            if circuit.pool is not self:
                raise LineageError(
                    "all circuits of one batch must share the pool"
                )
            union.update(circuit.order)
        return tuple(sorted(union))

    def evaluate_many(
        self,
        circuits: Sequence["CompiledCircuit"],
        assignment: ProbabilityMap,
        order: Sequence[int] | None = None,
    ) -> list[float]:
        """``P(F)`` for every circuit in one forward sweep.

        The whole result batch is computed over the pool's contiguous node
        arrays at once: shared subcircuits are evaluated a single time
        instead of once per root, and the per-call buffer setup is paid
        once per batch instead of once per tuple.  Each per-node operation
        is identical to :meth:`CompiledCircuit.evaluate`, so the returned
        confidences are bit-identical to the per-circuit path.
        """
        if not circuits:
            return []
        if order is None:
            order = self.merged_order(circuits)
        values = self._values_buffer()
        self._forward(order, values, assignment)
        return [_clamp(values[circuit.root]) for circuit in circuits]

    def stats(self) -> dict[str, float]:
        """Sharing statistics for observability spans and the CLI."""
        return {
            "nodes": len(self._kinds),
            "variables": self._variables,
            "intern_hits": self.intern_hits,
            "formula_hits": self.formula_hits,
            "shared_hit_rate": round(self.shared_hit_rate, 4),
        }


def _clamp(value: float) -> float:
    # Clamp tiny float drift so callers can rely on [0, 1].
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


class CompiledCircuit:
    """One formula's root in a pool, with its cone precomputed.

    ``order`` is the root's cone — every pool node the root depends on —
    in topological order; standalone evaluation sweeps only this slice of
    the pool, so unrelated formulas sharing the pool cost nothing.
    """

    __slots__ = ("pool", "root", "order", "support")

    def __init__(self, pool: CircuitPool, root: int) -> None:
        self.pool = pool
        self.root = root
        cone: set[int] = set()
        pending = [root]
        kinds = pool._kinds
        args = pool._args
        while pending:
            index = pending.pop()
            if index in cone:
                continue
            cone.add(index)
            kind = kinds[index]
            if kind == MUL or kind == LERP:
                pending.extend(args[index])
            elif kind == NOT:
                pending.append(args[index])
        # Node indexes are created children-first, so ascending index
        # order is a topological order of the cone.
        self.order: tuple[int, ...] = tuple(sorted(cone))
        self.support: tuple[TupleId, ...] = tuple(
            sorted(
                args[index]
                for index in self.order
                if kinds[index] == VAR
            )
        )

    def __len__(self) -> int:
        return len(self.order)

    def evaluate(self, assignment: ProbabilityMap) -> float:
        """``P(F)`` under *assignment* — one forward sweep of the cone."""
        pool = self.pool
        values = pool._values_buffer()
        pool._forward(self.order, values, assignment)
        return _clamp(values[self.root])
