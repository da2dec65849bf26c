"""Boolean lineage formulas over base tuples.

Query results carry *lineage*: a boolean formula whose variables are the
:class:`~repro.storage.tuples.TupleId` values of contributing base tuples
(Trio-style, paper element 2).  The formula records *how* the result was
derived — joins contribute conjunction, duplicate elimination and union
contribute disjunction, difference contributes negation — and the result's
confidence is the probability that the formula is true when each base tuple
is independently present with its stored confidence.

Formulas are immutable and hashable.  The smart constructors
:func:`lineage_and`, :func:`lineage_or` and :func:`lineage_not` flatten
nested connectives, fold constants, deduplicate identical children and apply
involution, so structurally equal derivations produce identical objects —
which the circuit compiler's formula memo relies on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..errors import ReproError
from ..storage.tuples import TupleId

__all__ = [
    "Lineage",
    "Var",
    "Top",
    "Bottom",
    "And",
    "Or",
    "Not",
    "TOP",
    "BOTTOM",
    "lineage_and",
    "lineage_or",
    "lineage_not",
    "var",
    "restrict",
    "node_count",
]


class Lineage:
    """Base class of all lineage formula nodes."""

    __slots__ = ("_variables",)

    _variables: frozenset[TupleId]
    #: Negation-free, so confidence rises with every base tuple's.
    monotone = True

    @property
    def variables(self) -> frozenset[TupleId]:
        """The base tuples this formula depends on."""
        return self._variables

    def evaluate(self, assignment: Mapping[TupleId, bool]) -> bool:
        """Truth value under a complete boolean *assignment*.

        Raises ``LineageError`` if a needed variable is
        missing from the assignment.
        """
        raise NotImplementedError

    # Operator sugar so lineage composes readably: ``a & b | ~c``.

    def __and__(self, other: "Lineage") -> "Lineage":
        return lineage_and(self, other)

    def __or__(self, other: "Lineage") -> "Lineage":
        return lineage_or(self, other)

    def __invert__(self) -> "Lineage":
        return lineage_not(self)


class _Constant(Lineage):
    __slots__ = ("_value", "_hash")

    def __init__(self, value: bool) -> None:
        self._value = value
        self._variables = frozenset()
        self._hash = hash(("const", value))

    @property
    def value(self) -> bool:
        return self._value

    def evaluate(self, assignment: Mapping[TupleId, bool]) -> bool:
        return self._value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Constant) and other._value == self._value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "TOP" if self._value else "BOTTOM"


class Top(_Constant):
    """The always-true formula (lineage of a certain fact)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(True)


class Bottom(_Constant):
    """The always-false formula (lineage of an impossible fact)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(False)


TOP = Top()
BOTTOM = Bottom()


class Var(Lineage):
    """A base-tuple variable: true iff the tuple is actually correct."""

    __slots__ = ("tid", "_hash")

    def __init__(self, tid: TupleId) -> None:
        self.tid = tid
        self._variables = frozenset((tid,))
        self._hash = hash(("var", tid))

    def evaluate(self, assignment: Mapping[TupleId, bool]) -> bool:
        try:
            return bool(assignment[self.tid])
        except KeyError:
            raise ReproError(
                f"assignment is missing variable {self.tid}", code="LineageError"
            ) from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.tid == self.tid

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Var({self.tid})"


class _Connective(Lineage):
    __slots__ = ("children", "_hash", "_monotone")

    _symbol = "?"

    def __init__(self, children: tuple[Lineage, ...]) -> None:
        self.children = children
        self._variables = frozenset().union(
            *(child.variables for child in children)
        )
        self._hash = hash((type(self).__name__, children))

    @property
    def monotone(self) -> bool:  # decided on first use, then kept
        if not hasattr(self, "_monotone"):
            self._monotone = all(child.monotone for child in self.children)
        return self._monotone

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.children == self.children  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = f" {self._symbol} ".join(map(repr, self.children))
        return f"({body})"


class And(_Connective):
    """Conjunction — e.g. the lineage of a join result."""

    __slots__ = ()
    _symbol = "AND"

    def evaluate(self, assignment: Mapping[TupleId, bool]) -> bool:
        return all(child.evaluate(assignment) for child in self.children)


class Or(_Connective):
    """Disjunction — e.g. the lineage of a deduplicated projection."""

    __slots__ = ()
    _symbol = "OR"

    def evaluate(self, assignment: Mapping[TupleId, bool]) -> bool:
        return any(child.evaluate(assignment) for child in self.children)


class Not(Lineage):
    """Negation — e.g. from ``EXCEPT`` / anti-join derivations."""

    __slots__ = ("child", "_hash")
    monotone = False

    def __init__(self, child: Lineage) -> None:
        self.child = child
        self._variables = child.variables
        self._hash = hash(("not", child))

    def evaluate(self, assignment: Mapping[TupleId, bool]) -> bool:
        return not self.child.evaluate(assignment)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.child == self.child

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NOT {self.child!r}"


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def var(tid: TupleId) -> Var:
    """Lineage variable for base tuple *tid*."""
    return Var(tid)


def _flatten(
    parts: Iterable[Lineage], connective: type[_Connective]
) -> Iterator[Lineage]:
    for part in parts:
        if type(part) is connective:
            yield from part.children  # already flattened on construction
        else:
            yield part


def lineage_and(*parts: Lineage) -> Lineage:
    """Conjunction with flattening, constant folding and deduplication.

    ``AND()`` is TOP (empty conjunction), any BOTTOM child collapses the
    whole formula to BOTTOM, TOP children are dropped, duplicate children
    are merged (idempotence), and a single remaining child is returned
    unwrapped.
    """
    seen: dict[Lineage, None] = {}
    for part in _flatten(parts, And):
        if isinstance(part, Bottom):
            return BOTTOM
        if isinstance(part, Top):
            continue
        seen.setdefault(part, None)
    children = tuple(seen)
    if not children:
        return TOP
    if len(children) == 1:
        return children[0]
    return And(children)


def lineage_or(*parts: Lineage) -> Lineage:
    """Disjunction with flattening, constant folding and deduplication.

    ``OR()`` is BOTTOM, any TOP child collapses to TOP, BOTTOM children are
    dropped, duplicates merged, single child unwrapped.
    """
    seen: dict[Lineage, None] = {}
    for part in _flatten(parts, Or):
        if isinstance(part, Top):
            return TOP
        if isinstance(part, Bottom):
            continue
        seen.setdefault(part, None)
    children = tuple(seen)
    if not children:
        return BOTTOM
    if len(children) == 1:
        return children[0]
    return Or(children)


def lineage_not(part: Lineage) -> Lineage:
    """Negation with constant folding and double-negation elimination."""
    if isinstance(part, Top):
        return BOTTOM
    if isinstance(part, Bottom):
        return TOP
    if isinstance(part, Not):
        return part.child
    return Not(part)


def restrict(formula: Lineage, tid: TupleId, value: bool) -> Lineage:
    """The formula with variable *tid* fixed to *value*, simplified.

    This is the cofactor used by Shannon expansion in the circuit
    compiler.  Subformulas not mentioning *tid* are returned unchanged
    (preserving object identity, which keeps memo caches effective).
    """
    if tid not in formula.variables:
        return formula
    if isinstance(formula, Var):
        return TOP if value else BOTTOM
    if isinstance(formula, Not):
        return lineage_not(restrict(formula.child, tid, value))
    if isinstance(formula, And):
        return lineage_and(
            *(restrict(child, tid, value) for child in formula.children)
        )
    if isinstance(formula, Or):
        return lineage_or(
            *(restrict(child, tid, value) for child in formula.children)
        )
    raise ReproError(  # pragma: no cover
        f"cannot restrict {formula!r}", code="LineageError"
    )


def node_count(formula: Lineage) -> int:
    """Total nodes in the formula tree (connectives, negations, leaves).

    Koch & Olteanu observe that lineage-formula size is the dominant cost
    driver when conditioning probabilistic databases; the observability
    layer records this per result so slow confidence computations can be
    attributed to formula shape.  Iterative to handle deep EXCEPT chains.
    """
    count = 0
    pending: list[Lineage] = [formula]
    while pending:
        node = pending.pop()
        count += 1
        if isinstance(node, Not):
            pending.append(node.child)
        elif isinstance(node, (And, Or)):
            pending.extend(node.children)
    return count
