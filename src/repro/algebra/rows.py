"""Annotated rows and result sets.

Every row flowing through the executor is an :class:`AnnotatedTuple` — plain
values plus the lineage formula recording its derivation.  A completed query
yields a :class:`ResultSet`, which can compute per-row confidences against
the database's current base-tuple confidences (element 2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from ..lineage.circuit import CircuitPool, CompiledCircuit
from ..lineage.formula import Lineage
from ..lineage.probability import probability
from ..storage.schema import Schema
from ..storage.tuples import TupleId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.database import Database

__all__ = ["AnnotatedTuple", "ResultSet"]


def _cell(value: Any) -> str:
    return "NULL" if value is None else str(value)


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

    Confidence computation compiles every row's lineage into one shared
    :class:`~repro.lineage.circuit.CircuitPool` on first use: common
    subformulas across rows are interned once, and repeated calls (policy
    enforcement, re-evaluation after an increment strategy) reuse the
    compiled circuits instead of re-walking the formula trees.
    """

    __slots__ = ("schema", "rows", "engine", "_pool", "_circuits", "_order")

    def __init__(self, schema: Schema, rows: list[AnnotatedTuple]) -> None:
        self.schema = schema
        self.rows = rows
        #: Name of the execution engine that produced this result (set by
        #: :func:`repro.sql.run_sql`; None for directly-executed plans).
        self.engine: str | None = None
        self._pool: CircuitPool | None = None
        self._circuits: list[CompiledCircuit] | None = None
        self._order: range | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[AnnotatedTuple]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> AnnotatedTuple:
        return self.rows[index]

    def values(self) -> list[tuple[Any, ...]]:
        """Bare value tuples, in result order."""
        return [row.values for row in self.rows]

    def base_tuples(self) -> frozenset[TupleId]:
        """All base tuples any row's lineage mentions (Λ0 in the paper)."""
        if not self.rows:
            return frozenset()
        return frozenset().union(*(row.lineage.variables for row in self.rows))

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

        Evaluated in batch: one forward sweep over the union of all rows'
        circuit cones (the pool as it stood when the rows were compiled),
        bit-identical to evaluating each circuit separately — shared
        subcircuits are just computed once per batch instead of once per
        row.  This is the path policy enforcement takes.
        """
        probabilities = self._probabilities(source)
        circuits = self.compiled_circuits()
        if not circuits:
            return []
        assert self._pool is not None and self._order is not None
        return self._pool.evaluate_many(circuits, probabilities, self._order)

    def with_confidences(
        self, source: "Database | Mapping[TupleId, float]"
    ) -> list[tuple[AnnotatedTuple, float]]:
        """Rows paired with their confidence (batch-evaluated)."""
        return list(zip(self.rows, self.confidences(source)))

    def top_k_by_confidence(
        self, source: "Database | Mapping[TupleId, float]", k: int
    ) -> list[tuple[AnnotatedTuple, float]]:
        """The *k* most confident rows, best first (ties keep result order).

        A common decision-support pattern on top of the paper's model:
        instead of a fixed policy threshold, take the most trustworthy
        answers.
        """
        ranked = self.with_confidences(source)
        ranked.sort(key=lambda pair: -pair[1])
        return ranked[: max(k, 0)]

    def to_table(
        self,
        source: "Database | Mapping[TupleId, float] | None" = None,
        max_rows: int = 50,
    ) -> str:
        """An aligned text rendering (optionally with a confidence column).

        Intended for REPLs and examples; truncates to *max_rows* with an
        ellipsis marker.
        """
        headers = list(self.schema.names)
        if source is not None:
            headers.append("confidence")
            body_rows = [
                [_cell(value) for value in row.values] + [f"{confidence:.3f}"]
                for row, confidence in self.with_confidences(source)
            ]
        else:
            body_rows = [
                [_cell(value) for value in row.values] for row in self.rows
            ]
        truncated = len(body_rows) > max_rows
        body_rows = body_rows[:max_rows]
        widths = [
            max(len(header), *(len(row[i]) for row in body_rows))
            if body_rows
            else len(header)
            for i, header in enumerate(headers)
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-" * (sum(widths) + 2 * (len(widths) - 1)),
        ]
        for row in body_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if truncated:
            lines.append(f"... ({len(self.rows)} rows total)")
        return "\n".join(lines)

    def _probabilities(
        self, source: "Database | Mapping[TupleId, float]"
    ) -> Mapping[TupleId, float]:
        resolver = getattr(source, "confidences", None)
        if callable(resolver) and not isinstance(source, Mapping):
            return resolver(self.base_tuples())
        return source  # already a probability map

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"ResultSet({len(self.rows)} rows, schema={self.schema.names})"
