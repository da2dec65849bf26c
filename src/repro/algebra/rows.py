"""Annotated rows and result sets.

Every row flowing through the executor is an :class:`AnnotatedTuple` — plain
values plus the lineage formula recording its derivation.  A completed query
yields a :class:`ResultSet`, which can compute per-row confidences against
the database's current base-tuple confidences (element 2 of the paper):
each is its lineage's compiled circuit (:mod:`repro.lineage.circuit`), or
while the lineage is deferred the same arithmetic over its factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from ..lineage.circuit import CircuitPool, CompiledCircuit, probability
from ..lineage.formula import Lineage
from ..storage.schema import Schema
from ..storage.tuples import TupleId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engines.columnar.batch import ColumnBatch, Group
    from ..storage.database import Database

__all__ = ["AnnotatedTuple", "ResultSet"]


@dataclass(frozen=True)
class AnnotatedTuple:
    """One derived row: values plus lineage over base tuples."""

    values: tuple[Any, ...]
    lineage: Lineage

    def confidence(self, probabilities: Mapping[TupleId, float]) -> float:
        """This row's confidence under the given base-tuple probabilities."""
        return probability(self.lineage, probabilities)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]


class ResultSet:
    """An ordered collection of annotated rows over a schema.

    The columnar engine hands over its root batch (:meth:`from_batch`) and
    the result stays columnar until someone reads :attr:`rows`: its length,
    :meth:`values`, :meth:`base_tuples` and :meth:`take` build no
    ``AnnotatedTuple`` and no lineage.

    Confidence computation has two paths.  A still-deferred batch whose
    factors' leaf tables are pairwise different holds, by construction, an
    ``And`` of variable-disjoint factors per row: its confidence is their
    product, each group's OR computed as its circuit would compute it (see
    :func:`_row_confidences`).  Everything else compiles every row's lineage
    into one shared :class:`~repro.lineage.circuit.CircuitPool` on first
    use: common subformulas across rows are interned once, and repeated
    calls (policy enforcement, re-evaluation after an increment strategy)
    reuse the compiled circuits instead of re-walking the formula trees.
    """

    __slots__ = (
        "schema", "engine", "_rows", "_batch", "_pool", "_circuits", "_order"
    )

    def __init__(self, schema: Schema, rows: list[AnnotatedTuple]) -> None:
        self.schema = schema
        self._rows: list[AnnotatedTuple] | None = rows
        self._batch: "ColumnBatch | None" = None
        #: Name of the execution engine that produced this result (set by
        #: :func:`repro.sql.run_sql`; None for directly-executed plans).
        self.engine: str | None = None
        self._pool: CircuitPool | None = None
        self._circuits: list[CompiledCircuit] | None = None
        self._order: range | None = None

    @classmethod
    def from_batch(cls, batch: "ColumnBatch") -> "ResultSet":
        """The columnar engine's result: *batch*, until :attr:`rows` is read."""
        result = cls(batch.schema, None)
        result._batch = batch
        return result

    @property
    def rows(self) -> list[AnnotatedTuple]:
        """The annotated rows (built from the batch on first read, kept)."""
        if self._rows is None:
            batch = self._batch
            self._rows = [
                AnnotatedTuple(values, formula)
                for values, formula in zip(batch.rows(), batch.lineage_column())
            ]
            self._batch = None
        return self._rows

    def __len__(self) -> int:
        return len(self._rows) if self._batch is None else self._batch.length

    def __iter__(self) -> Iterator[AnnotatedTuple]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> AnnotatedTuple:
        return self.rows[index]

    def values(
        self, positions: Sequence[int] | None = None
    ) -> list[tuple[Any, ...]]:
        """Bare value tuples, in result order — or of the rows at
        *positions*, in that order."""
        if self._batch is not None:
            return self._batch.rows(positions)
        rows = self._rows
        if positions is not None:
            rows = map(rows.__getitem__, positions)
        return [row.values for row in rows]

    def take(self, positions: Sequence[int]) -> "ResultSet":
        """The rows at *positions*, in that order, as a result set of their
        own (a columnar result stays columnar)."""
        if self._batch is not None:
            return ResultSet.from_batch(self._batch.gather(positions))
        return ResultSet(self.schema, [self._rows[i] for i in positions])

    def base_tuples(self) -> frozenset[TupleId]:
        """All base tuples any row's lineage mentions (Λ0 in the paper)."""
        if self._batch is not None:
            return self._batch.variables()
        return frozenset().union(*(row.lineage.variables for row in self.rows))

    def row_base_tuples(self) -> list[frozenset[TupleId]]:
        """Each row's base tuples, in result order."""
        if self._batch is not None:
            return self._batch.row_variables()
        return [row.lineage.variables for row in self.rows]

    @property
    def has_compiled_circuits(self) -> bool:
        """Whether the shared circuits have been built (no side effects)."""
        return self._circuits is not None

    def compiled_circuits(self) -> list[CompiledCircuit]:
        """Per-row circuits over one shared pool (compiled on first use)."""
        if self._circuits is None:
            pool = CircuitPool()
            self._circuits = [pool.compile(row.lineage) for row in self.rows]
            self._pool = pool
            # Every node of the fresh pool lies in some row's cone, and
            # creation order is topological: this is the batch sweep order.
            # Fixed now — later compiles into the pool (strategy finding)
            # add nodes no row depends on.
            self._order = range(len(pool))
        return self._circuits

    @property
    def circuit_pool(self) -> CircuitPool:
        """The pool every row's lineage is compiled into (on first use);
        compiling a row's lineage into it again is a memo hit."""
        self.compiled_circuits()
        assert self._pool is not None
        return self._pool

    def circuit_stats(self) -> dict[str, float]:
        """Sharing statistics of the result set's circuit pool."""
        return self.circuit_pool.stats()

    def confidences(self, source: "Database | Mapping[TupleId, float]") -> list[float]:
        """Per-row confidence, from a database or an explicit probability map.

        A product-form result (see :func:`_row_confidences`; its lineage is
        still deferred — compiling the circuits reads it, so a caller who
        asked for circuits keeps them) runs each row's circuit arithmetic
        without the circuit, over each factor column's stored confidences
        read by ordinal off its table now (a map is read per tuple).
        Otherwise evaluated in batch: one forward sweep over the union of
        all rows' circuit cones (the pool as it stood when the rows were
        compiled), bit-identical to evaluating each circuit separately —
        shared subcircuits are just computed once per batch instead of
        once per row.
        """
        if self._batch is not None and self._batch.factors and len(self):
            if isinstance(source, Mapping):
                read = lambda column: list(map(source.__getitem__, column))
            else:
                read = source.column_confidences
            confidences = _row_confidences(tuple(self._batch.factors), read)
            if confidences is not None:
                return confidences
        probabilities = self._probabilities(source)
        circuits = self.compiled_circuits()
        if not circuits:
            return []
        assert self._pool is not None and self._order is not None
        return self._pool.evaluate_many(circuits, probabilities, self._order)

    def row_factors(
        self, positions: Sequence[int]
    ) -> list[tuple[TupleId, ...]] | None:
        """The base tuples each row at *positions* is the product of, in
        factor order — read off a still-deferred batch whose factors are
        all tid columns of pairwise-different tables (the product form of
        :meth:`confidences`), building no row and no formula; ``None`` for
        any other result."""
        batch = self._batch
        if (
            batch is None
            or not batch.factors
            or not len(self)
            or any(type(column[0]) is not TupleId for column in batch.factors)
            or not _product_form(batch.factors)
        ):
            return None
        return list(
            zip(*[[column[i] for i in positions] for column in batch.factors])
        )

    def with_confidences(
        self, source: "Database | Mapping[TupleId, float]"
    ) -> list[tuple[AnnotatedTuple, float]]:
        """Rows paired with their confidence (batch-evaluated)."""
        return list(zip(self.rows, self.confidences(source)))

    def _probabilities(
        self, source: "Database | Mapping[TupleId, float]"
    ) -> Mapping[TupleId, float]:
        resolver = getattr(source, "confidences", None)
        if callable(resolver) and not isinstance(source, Mapping):
            return resolver(self.base_tuples())
        return source  # already a probability map

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"ResultSet({len(self)} rows, schema={self.schema.names})"


def _row_confidences(
    factors: "tuple[Sequence[TupleId | Group], ...]",
    read: "Callable[[Sequence[TupleId]], list[float]]",
) -> list[float] | None:
    """Each row's confidence, operation for operation what
    ``CircuitPool._forward`` computes for the circuit its lineage compiles
    to — or ``None`` when that is not a product over the factors, or a
    probability map lacks a tuple (then compiling raises the one error).
    *read* gives the probabilities of one table's tuples, in order.

    A row is ``lineage_and`` of its factors.  When their leaf tables — a
    tid column's table, each of a group's inner columns' — are pairwise
    different, its children are variable-disjoint and it compiles to one
    ``MUL`` over them, left to right: float multiplication is not
    associative, so the product runs over the flattened factors in order,
    a one-member group contributing its member's (``lineage_or`` unwraps
    it, ``lineage_and`` splices it in).  ``1.0·x`` is ``x``, so a single
    factor is its own node.  Any other group is one child worth
    :func:`_or_probability`, or ``1 −`` that under ``NOT``.
    """
    if not _product_form(factors):
        return None
    products = [1.0] * len(factors[0])
    try:
        for column in factors:
            if type(column[0]) is TupleId:
                products = list(map(mul, products, read(column)))
                continue
            terms = _group_terms(column, read)
            if terms is None:
                return None
            products = [
                prod(terms[group], start=product)
                for product, group in zip(products, column)
            ]
    except KeyError:
        return None
    return [v if 0.0 <= v <= 1.0 else min(1.0, max(0.0, v)) for v in products]


def _product_form(factors: "tuple[Sequence[TupleId | Group], ...]") -> bool:
    """Whether every row of a deferred batch is an ``And`` of
    variable-disjoint factors: their leaf tables — a tid column's table,
    each of a group's inner columns' — are pairwise different.  A group
    over a materialised batch or over groups is not product form."""
    tables: list[str] = []
    for column in factors:
        if type(column[0]) is TupleId:
            tables.append(column[0].table)
            continue
        inner = column[0].inner.factors
        if inner is None or any(
            leaves and type(leaves[0]) is not TupleId for leaves in inner
        ):
            return False
        tables.extend(leaves[0].table for leaves in inner if leaves)
    return len(set(tables)) == len(tables)


def _group_terms(
    column: "Sequence[Group]", read
) -> "dict[Group, tuple[float, ...]] | None":
    """What each group of *column* — all over one inner batch — multiplies
    its rows' products by.  The inner columns are read at the groups'
    members only, laid end to end, so each group is one slice."""
    groups = list(dict.fromkeys(column))
    members = [j for group in groups for j in group.members]
    leaves = [[tids[j] for j in members] for tids in groups[0].inner.factors]
    values = [read(tids) if tids else [] for tids in leaves]
    keys = [[tid.ordinal for tid in tids] for tids in leaves]
    terms = {}
    stop = 0
    for group in groups:
        start, stop = stop, stop + len(group.members)
        if stop - start == 1 and not group.negated:
            terms[group] = tuple([inner[start] for inner in values])
            continue
        value = _or_probability(
            [inner[start:stop] for inner in values],
            [inner[start:stop] for inner in keys],
        )
        if value is None:
            return None
        terms[group] = (1.0 - value,) if group.negated else (value,)
    return terms


def _or_probability(
    values: "list[list[float]]", keys: "list[list[int]]"
) -> float | None:
    """``P`` of the OR of a group's members, by the compiler's own steps —
    ``None`` unless the OR is star-shaped.  ``values[c][m]`` is the
    probability of member *m*'s tuple in inner column *c*, ``keys[c][m]``
    its ordinal: a column is one table's tuples, so ordinals identify.

    Members sharing no tuple are independent children: ``1 − ∏(1 −
    P(member))``, left to right.  When exactly one column repeats a tuple
    (the hub), ``_independent_clusters`` groups the members by hub tuple in
    first-seen order, and a cluster of several is Shannon-expanded on its
    hub, the one variable in more than one of its members: the high
    cofactor is the OR of the members' other factors, the low one ⊥, and
    ``LERP`` computes ``p·high + (1 − p)·0.0``.  One cluster is the OR's
    value; several combine like independent members — so a one-member OR
    is its member, and an empty one ⊥ (``1.0 − 1``).
    """
    repeating = [
        c for c, column in enumerate(keys) if len(set(column)) < len(column)
    ]
    if len(repeating) > 1:
        return None
    results = list(map(prod, zip(*values)))  # each member's product
    if repeating:
        hub = repeating[0]
        rest = [column for c, column in enumerate(values) if c != hub]
        others = list(map(prod, zip(*rest))) if rest else [1.0] * len(results)
        clusters: dict[int, list[int]] = {}
        for m, key in enumerate(keys[hub]):
            clusters.setdefault(key, []).append(m)
        results = [results[cluster[0]] for cluster in clusters.values()]
        for i, cluster in enumerate(clusters.values()):
            if len(cluster) > 1:
                p = values[hub][cluster[0]]
                high = 1.0 - prod([1.0 - others[m] for m in cluster])
                results[i] = p * high + (1.0 - p) * 0.0
    if len(results) == 1:
        return results[0]
    return 1.0 - prod([1.0 - value for value in results])
