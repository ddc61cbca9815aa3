"""Core value types for CPL scenes, the pure rule algebra and diagnostics.

A scene is a named set of declared concepts plus an ordered list of rules.
Each non-self-loop rule says: one or more output concepts receive the value
change of an effector, delivered through an input chain that starts at a
source concept and ends at the effector.  The derivation algebra below turns
the left-hand side of such a rule into its expected result terms; a rule's
shape tells which rules reverse each other, and ``reverse_pairs`` finds
those pairs once, by position.  The parser and every derivation share
this module alone, diagnostics included.

A concept is declared once, as a ``ConceptId`` in ``Scene.entities``: its
name, its optional alias and its declaration span live there only.  Every
mention of a concept elsewhere (rule outputs, chain elements, result terms,
relation ends and the scene root) is the declared name, a plain ``str``,
whether the script wrote the name or the alias.

Everything here is immutable after construction; source spans are carried
for diagnostics but excluded from equality.  Every record is a NamedTuple.
Fields left out of equality (spans, rule ordinals) come last, and the
record compares and hashes only the fields before them.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


def _compared_first(n: int):
    """``__eq__``, ``__ne__`` and ``__hash__`` over a record's first ``n``
    fields.  A record equals only a record of its own type, never a plain
    tuple; ``__ne__`` is overridden too, or ``tuple.__ne__`` would compare
    the trailing fields."""

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self[:n] == other[:n]

    def __ne__(self, other) -> bool:
        return type(other) is not type(self) or self[:n] != other[:n]

    def __hash__(self) -> int:
        return hash(self[:n])

    return __eq__, __ne__, __hash__


class Span(NamedTuple):
    """1-based source position."""

    line: int = 0
    column: int = 0


_NO_SPAN = Span()


class Diagnostic(NamedTuple):
    """A positioned parser or checker error."""

    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


def error(message: str, span: Span) -> Diagnostic:
    return Diagnostic(message, span.line, span.column)


class ConceptId(NamedTuple):
    """A declared concept: full name plus an optional short alias."""

    name: str
    abbrev: str | None = None
    span: Span = _NO_SPAN

    __eq__, __ne__, __hash__ = _compared_first(2)


class RelationKind(Enum):
    SUB_CONCEPT = "sub_concept"
    ASSOCIATION = "association"
    CONTAINED_IN = "contained_in"


class Relation(NamedTuple):
    """A normalized binary relation between two distinct concepts.

    SUB_CONCEPT(x, y) nests x inside y.  ASSOCIATION(x, y) relates the two
    while keeping them separate; it is symmetric, the written orientation is
    preserved for formatting only.  CONTAINED_IN(x, y) records an initial
    placement of x inside y.
    """

    kind: RelationKind
    left: str
    right: str
    span: Span = _NO_SPAN

    __eq__, __ne__, __hash__ = _compared_first(3)

    def pair(self) -> frozenset[str]:
        return frozenset((self.left, self.right))


class Amount(NamedTuple):
    """A dimensionless amount: a symbol, a number, or a difference a - b."""

    first: int | str
    second: int | str | None = None

    def value(self) -> int | None:
        """Numeric value, or None when any part is symbolic."""
        if isinstance(self.first, str):
            return None
        if self.second is None:
            return self.first
        if isinstance(self.second, str):
            return None
        return self.first - self.second

    def render(self) -> str:
        if self.second is None:
            return str(self.first)
        return f"{self.first}-{self.second}"


class Quantity(NamedTuple):
    """The amount annotated on a chain: ``total`` is what the source holds.

    The split amounts live on the rule's result terms, where the script
    writes them: the amount taken is the last one of the ``O.F`` term, the
    remainder the last one of the term that repeats the chain.
    ``cpl.check.validate_rule`` reads them there and checks that numeric
    values are conserved.
    """

    total: Amount
    span: Span = _NO_SPAN

    __eq__, __ne__, __hash__ = _compared_first(1)


class Chain(NamedTuple):
    """An input chain: source first, measured effector last, length >= 2."""

    elements: tuple[str, ...]
    quantity: Quantity | None = None

    @property
    def source(self) -> str:
        return self.elements[0]

    @property
    def effector(self) -> str:
        return self.elements[-1]


class ResultTerm(NamedTuple):
    """A declared result term; ``qtys`` holds an optional amount for each
    element, one slot per concept (the leading element never carries one)."""

    concepts: tuple[str, ...]
    qtys: tuple[Amount | None, ...]


class Rule(NamedTuple):
    """One scene statement.

    Self-loop rules (``P -> P``) have a single output and nothing else.
    All other rules carry at least one output, one input chain and the
    declared result terms, plus any nesting/association relations.
    """

    label: str | None
    outputs: tuple[str, ...]
    inputs: tuple[Chain, ...]
    declared_results: tuple[ResultTerm, ...]
    relations: tuple[Relation, ...]
    self_loop: bool = False
    ordinal: int = 0
    span: Span = _NO_SPAN

    __eq__, __ne__, __hash__ = _compared_first(6)

    @property
    def cite(self) -> str:
        """Stable human-readable reference for diagnostics."""
        return self.label if self.label else f"rule {self.ordinal}"

    def lhs_names(self) -> tuple[str, ...]:
        """Distinct left-hand-side concept names, first-appearance order."""
        names = self.outputs
        for chain in self.inputs:
            names += chain.elements
        return tuple(dict.fromkeys(names))

    def shape(self) -> tuple[str, str, tuple[str, ...]] | None:
        """(output, source, chain tail) of a rule with one output and one
        chain; None for any other rule, self-loops included."""
        if self.self_loop or len(self.outputs) != 1 or len(self.inputs) != 1:
            return None
        elements = self.inputs[0].elements
        return self.outputs[0], elements[0], elements[1:]


class Scene(NamedTuple):
    """A named rule set over declared concepts, optionally rooted in an
    outermost container concept."""

    name: str
    entities: tuple[ConceptId, ...]
    root: str | None
    rules: tuple[Rule, ...]
    span: Span = _NO_SPAN

    __eq__, __ne__, __hash__ = _compared_first(4)

    def used_names(self) -> tuple[str, ...]:
        """Names of the concepts at least one rule mentions anywhere,
        first-appearance order."""
        names: list[str] = []
        for rule in self.rules:
            names += rule.outputs
            for chain in rule.inputs:
                names += chain.elements
            for term in rule.declared_results:
                names += term.concepts
            for rel in rule.relations:
                names += rel.left, rel.right
        return tuple(dict.fromkeys(names))


def normalize_relation(left: str, op: str, right: str,
                       span: Span = _NO_SPAN) -> Relation:
    """Map a written relation to its normalized form.

    ``x > y`` is the written reverse of ``y < x`` and is flipped here;
    ``<``, ``-`` and ``in`` map directly.  Relating a concept to itself is
    invalid.
    """
    if left == right:
        raise ValueError(f"concept {left!r} cannot relate to itself")
    if op == "<":
        return Relation(RelationKind.SUB_CONCEPT, left, right, span)
    if op == ">":
        return Relation(RelationKind.SUB_CONCEPT, right, left, span)
    if op == "-":
        return Relation(RelationKind.ASSOCIATION, left, right, span)
    if op == "in":
        return Relation(RelationKind.CONTAINED_IN, left, right, span)
    raise ValueError(f"unknown relation operator {op!r}")


def derive_result(outputs: tuple[str, ...] | list[str],
                  inputs: tuple[Chain, ...] | list[Chain]) -> list[tuple[str, ...]]:
    """Derive the expected result terms of a rule left-hand side.

    Each output is linked with each inverted input chain: for output O and
    chain S.M1...F the term is O.F...M1.S.  Outputs form the outer loop,
    chains the inner one, so the count is len(outputs) * len(inputs).
    """
    return [
        (output,) + chain.elements[::-1]
        for output in outputs
        for chain in inputs
    ]


def split_result(outputs: tuple[str, ...] | list[str],
                 chain: Chain) -> list[tuple[str, ...]]:
    """Result terms in the split amount form for a single chain.

    When the chain carries a quantity, a rule may declare the moved part as
    O.F and the remainder as the untouched chain S...F instead of the fully
    inverted term.
    """
    terms = [(output, chain.effector) for output in outputs]
    terms.append(chain.elements)
    return terms


def is_reverse_pair(a: Rule, b: Rule) -> bool:
    """True when ``b`` re-states ``a`` with output and source swapped.

    Only defined for distinct rules with mirrored shapes (``Rule.shape``).
    Such a pair marks a repeatable process rather than new structure.
    """
    if a is b or (shape := b.shape()) is None:
        return False
    output, source, tail = shape
    return a.shape() == (source, output, tail)


def reverse_pairs(rules: tuple[Rule, ...]) -> list[tuple[int, int]]:
    """Positions ``(i, j)``, ``i < j``, of every two rules that reverse each
    other, ordered by ``i`` and then ``j``.

    Rules are bucketed by ``Rule.shape``: the rules that reverse a rule are
    exactly those under its shape with output and source swapped.
    """
    buckets: dict[tuple[str, str, tuple[str, ...]], list[int]] = {}
    for j, rule in enumerate(rules):
        if (shape := rule.shape()) is not None:
            buckets.setdefault(shape, []).append(j)
    return sorted((i, j) for (output, source, tail), earlier in buckets.items()
                  for j in buckets.get((source, output, tail), ())
                  for i in earlier if i < j)
