"""Exact confidence of a lineage formula, by compiling it into an
arithmetic circuit.

Base tuples are independent (as in Trio / Dalvi-Suciu probabilistic
databases, which the paper builds on), so the confidence of a formula is
``P(F)``.  A :class:`CircuitPool` compiles formulas into flat arithmetic
circuits by two steps, the one place either is written:

1. **Independence decomposition** — the children of an AND/OR grouped into
   variable-disjoint clusters are independent events: ``P(∧) = Π
   P(cluster)`` (``MUL``) and ``P(∨) = 1 − Π (1 − P(cluster))``.
   Read-once formulas, which dominate in practice, need this rule alone.
2. **Shannon expansion** — one entangled cluster is conditioned on the
   variable shared by the most children:
   ``P(F) = p·P(F|v=1) + (1−p)·P(F|v=0)`` (``LERP``).  Cofactors simplify
   (``restrict`` folds constants) and are memoized per pool.

Worst case is exponential (#P-hard), but lineages from SPJU queries over
the paper's workloads stay small.  Nodes are *interned*: structurally
equal subcircuits are stored once and shared across every formula
compiled into the pool (one pool per query, so a result set with
overlapping derivations pays for each common subformula once).

Compile once, then evaluate by one **forward sweep** in topological
(= creation) order: products left to right, OR as ``1 − Π(1 − x)``,
Shannon as ``p·high + (1−p)·low``.  :meth:`CompiledCircuit.sweep` takes
its inputs *positionally*, one per entry of the circuit's sorted
``support`` — what the increment solvers re-run behind
``ConfidenceFunction``'s cache; :meth:`CompiledCircuit.evaluate` feeds it
from a mapping and :meth:`CircuitPool.evaluate_many` sweeps the union of
many cones once per result batch.  All three run one loop,
:meth:`CircuitPool._forward`, which does not range-check its inputs (the
storage layer guarantees [0, 1]); :func:`probability` — one formula in a
pool of its own — does.  Tests hold the sweep to possible-worlds
enumeration, and the deferred confidences of ``algebra.rows`` to it bit
for bit.

The pool is single-threaded by design (one value buffer, a slot per node,
is reused across calls), matching the rest of the engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from ..errors import ReproError
from ..storage.tuples import TupleId
from .formula import And, Bottom, Lineage, Not, Or, Top, Var, restrict

__all__ = ["CircuitPool", "CompiledCircuit", "probability"]

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
    """Exact ``P(formula)`` given independent base-tuple *probabilities*:
    *formula* compiled into a pool of its own and swept once.

    Raises ``LineageError`` if a variable the circuit reads is missing from
    *probabilities* or its probability is out of range.
    """
    circuit = CircuitPool().compile(formula)
    inputs = pick(probabilities, circuit.support)
    for tid, value in zip(circuit.support, inputs):
        if not 0.0 <= value <= 1.0:
            raise ReproError(
                f"probability {value} of {tid} outside [0, 1]",
                code="LineageError",
            )
    return circuit.sweep(inputs)


# Node kinds.  Children are node indexes; a node's index is always larger
# than its children's (creation order == topological order).
CONST = 0  # arg: float value
VAR = 1  # arg: TupleId
MUL = 2  # arg: tuple of child indexes — product
NOT = 3  # arg: child index — 1 − child
LERP = 4  # arg: (var, high, low) — var·high + (1 − var)·low


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
        "_values",
        "_circuits",
        "intern_hits",
        "formula_hits",
        "lookups",
    )

    def __init__(self) -> None:
        self._kinds: list[int] = []
        self._args: list = []
        self._intern: dict[tuple, int] = {}
        self._formula_memo: dict[Lineage, int] = {}
        #: One value slot per node; a constant's is written at creation.
        self._values: list[float] = []
        self._circuits: dict[int, CompiledCircuit] = {}
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
        self._values.append(arg if kind == CONST else 0.0)
        self._intern[key] = index
        return index

    # -- compilation --------------------------------------------------------

    def compile(self, formula: Lineage) -> "CompiledCircuit":
        """Compile *formula* into the pool; one handle is kept per root."""
        root = self._compile_formula(formula)
        circuit = self._circuits.get(root)
        if circuit is None:
            circuit = self._circuits[root] = CompiledCircuit(self, root)
        return circuit

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
            children = node.children
            if sum(len(c.variables) for c in children) == len(node.variables):
                # Pairwise variable-disjoint children (a join row's
                # ``And(var, var)``): each is its own independent cluster,
                # in child order — what the clustering below would return.
                parts = [self._compile_formula(child) for child in children]
            else:
                clusters = _independent_clusters(children)
                if len(clusters) == 1 and len(clusters[0]) > 1:
                    branch = _pick_branch_variable(children)
                    high = self._compile_formula(restrict(node, branch, True))
                    low = self._compile_formula(restrict(node, branch, False))
                    return self._node(LERP, (self._node(VAR, branch), high, low))
                parts = [
                    self._compile_formula(_rebuild_connective(node, cluster))
                    for cluster in clusters
                ]
            if isinstance(node, And):
                return self._product(parts)
            complements = [self._node(NOT, part) for part in parts]
            return self._node(NOT, self._product(complements))
        raise ReproError(  # pragma: no cover
            f"cannot compile {node!r}", code="LineageError"
        )

    def _product(self, parts: list[int]) -> int:
        if len(parts) == 1:
            return parts[0]
        return self._node(MUL, tuple(parts))

    # -- forward sweep -------------------------------------------------------

    def _forward(
        self, order: Sequence[int], assignment: ProbabilityMap | None = None
    ) -> list[float]:
        """One forward sweep of *order* into the value buffer (returned).
        ``VAR`` nodes read *assignment*; an *order* without them needs none."""
        kinds = self._kinds
        args = self._args
        values = self._values
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
        return values

    # -- batch evaluation ----------------------------------------------------

    def merged_order(
        self, circuits: Sequence["CompiledCircuit"]
    ) -> tuple[int, ...]:
        """Topological order of the union of the circuits' cones: ascending
        node index, since nodes are created children-first."""
        union: set[int] = set()
        for circuit in circuits:
            if circuit.pool is not self:
                raise ReproError(
                    "all circuits of one batch must share the pool",
                    code="LineageError",
                )
            union.update(circuit.order)
        return tuple(sorted(union))

    def evaluate_many(
        self,
        circuits: Sequence["CompiledCircuit"],
        assignment: ProbabilityMap,
        order: Sequence[int] | None = None,
    ) -> list[float]:
        """``P(F)`` for every circuit, from *assignment*, in one sweep over
        the union of the cones (*order*: a cached :meth:`merged_order`): a
        shared subcircuit is evaluated once, not once per root, by the same
        per-node operations as :meth:`CompiledCircuit.sweep`."""
        if order is None:
            order = self.merged_order(circuits)
        values = self._forward(order, assignment)
        roots = [values[circuit.root] for circuit in circuits]
        # Clamp tiny float drift so callers can rely on [0, 1].
        return [v if 0.0 <= v <= 1.0 else min(1.0, max(0.0, v)) for v in roots]

    def stats(self) -> dict[str, float]:
        """Sharing statistics for observability spans and the CLI."""
        return {
            "nodes": len(self._kinds),
            "variables": self._kinds.count(VAR),
            "intern_hits": self.intern_hits,
            "formula_hits": self.formula_hits,
            "shared_hit_rate": round(self.shared_hit_rate, 4),
        }


class CompiledCircuit:
    """One formula's root in a pool; its cone is found on first use.

    ``order`` is the root's cone — every pool node the root depends on —
    in topological order; standalone evaluation sweeps only this slice of
    the pool, so unrelated formulas sharing the pool cost nothing.
    ``support`` is the sorted base tuples of the cone's ``VAR`` nodes:
    position *i* of :meth:`sweep`'s input vector is ``support[i]``.
    Both are computed the first time either is read: the solvers' sweeps
    need them, a result batch evaluated by the pool-wide sweep never does.
    """

    __slots__ = ("pool", "root", "_order", "_support", "_inputs", "_inner")

    def __init__(self, pool: CircuitPool, root: int) -> None:
        self.pool = pool
        self.root = root
        self._order: tuple[int, ...] | None = None
        self._inner: tuple[int, ...] | None = None  # bound by the first sweep

    @property
    def order(self) -> tuple[int, ...]:
        if self._order is None:
            self._find_cone()
        return self._order

    @property
    def support(self) -> tuple:
        if self._order is None:
            self._find_cone()
        return self._support

    def _find_cone(self) -> None:
        cone: set[int] = set()
        pending = [self.root]
        kinds = self.pool._kinds
        args = self.pool._args
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
        order = self._order = tuple(sorted(cone))
        self._support = tuple(sorted(args[i] for i in order if kinds[i] == VAR))

    def __len__(self) -> int:
        return len(self.order)

    def sweep(self, inputs: Sequence[float]) -> float:
        """``P(F)`` with ``support[i]`` at probability ``inputs[i]`` — one
        forward sweep of the cone, no mapping lookups."""
        pool = self.pool
        if self._inner is None:  # resolve VAR nodes to input positions, once
            self._inputs = tuple(pool._intern[VAR, tid] for tid in self.support)
            self._inner = tuple(i for i in self.order if pool._kinds[i] > VAR)
        values = pool._values
        for index, value in zip(self._inputs, inputs, strict=True):
            values[index] = value
        if self._inner:
            pool._forward(self._inner)
        value = values[self.root]  # clamped like the batch path's
        return value if 0.0 <= value <= 1.0 else min(1.0, max(0.0, value))

    def evaluate(self, assignment: ProbabilityMap) -> float:
        """``P(F)`` under *assignment* (which may cover unrelated tuples)."""
        return self.sweep(pick(assignment, self.support))
