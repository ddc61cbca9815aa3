"""Core value types for CPL scenes, the pure rule algebra and diagnostics.

A scene is a named set of declared concepts plus an ordered list of rules.
Each non-self-loop rule says: one or more output concepts receive the value
change of an effector, delivered through an input chain that starts at a
source concept and ends at the effector.  The derivation algebra below turns
the left-hand side of such a rule into its expected result terms;
``is_reverse_pair`` tells whether two rules reverse each other, and
``reverse_pairs`` finds those pairs once, by position.  The parser and
every derivation share this module alone, diagnostics included.

A concept is declared once, as a ``ConceptId`` in ``Scene.entities``: its
name and its optional alias live there only.  Every mention of a concept
elsewhere (rule outputs, chain elements, result terms, relation ends and
the scene root) is the declared name, a plain ``str``, whether the script
wrote the name or the alias.

A relation's kind is the operator the script wrote, a plain ``str``:
``<`` nests, ``-`` associates and ``in`` contains, and a written ``>`` is
flipped into ``<``.  The operator table lives here alone.

Everything here is immutable after construction, and every record is a
NamedTuple.  Only the records that diagnostics place carry a source span:
a rule, with its ordinal, and a quantity.  Those fields are left out of
equality; they come last, and the record compares and hashes only the
fields before them.
"""

from __future__ import annotations

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


SUB_CONCEPT = "<"  # x < y nests x inside y
ASSOCIATION = "-"  # x - y relates the two while keeping them apart
CONTAINED_IN = "in"  # x in y places x inside y at first
OPERATORS = frozenset({SUB_CONCEPT, ">", ASSOCIATION, CONTAINED_IN})


class Relation(NamedTuple):
    """A normalized binary relation between two distinct concepts; ``kind``
    is one of the three operators above.  An association is symmetric: its
    written orientation is kept for formatting only."""

    kind: str
    left: str
    right: str


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

    A self-loop rule (``P -> P``) is the rule with no input chain: a single
    output and nothing else.  Every other rule carries at least one output,
    one input chain and the declared result terms, plus any
    nesting/association relations.
    """

    label: str | None
    outputs: tuple[str, ...]
    inputs: tuple[Chain, ...]
    declared_results: tuple[ResultTerm, ...]
    relations: tuple[Relation, ...]
    ordinal: int = 0
    span: Span = _NO_SPAN

    __eq__, __ne__, __hash__ = _compared_first(5)

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


class Scene(NamedTuple):
    """A named rule set over declared concepts, optionally rooted in an
    outermost container concept."""

    name: str
    entities: tuple[ConceptId, ...]
    root: str | None
    rules: tuple[Rule, ...]

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


def normalize_relation(left: str, op: str, right: str) -> Relation:
    """Map a written relation to its normalized form.

    ``x > y`` is the written reverse of ``y < x`` and is flipped here;
    every other operator is the relation's kind as written.  Relating a
    concept to itself is invalid.
    """
    if left == right:
        raise ValueError(f"concept {left!r} cannot relate to itself")
    if op not in OPERATORS:
        raise ValueError(f"unknown relation operator {op!r}")
    if op == ">":
        return Relation(SUB_CONCEPT, right, left)
    return Relation(op, left, right)


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

    Only defined for distinct rules of one output and one chain each.
    Such a pair marks a repeatable process rather than new structure.
    """
    if (a is b or len(a.outputs) != 1 or len(a.inputs) != 1
            or len(b.outputs) != 1 or len(b.inputs) != 1):
        return False
    elements = a.inputs[0].elements
    return (b.outputs[0] == elements[0]
            and b.inputs[0].elements == (a.outputs[0],) + elements[1:])


def reverse_pairs(rules: tuple[Rule, ...]) -> list[tuple[int, int]]:
    """Positions ``(i, j)``, ``i < j``, of every two rules that reverse each
    other, ordered by ``i`` and then ``j``.

    Rules of one output and one chain are bucketed by that output, then by
    the chain's elements, so no key is built per rule: the rules that
    reverse a rule are those under its chain's source, then under its chain
    with the output in place of the source.
    """
    buckets: dict[str, dict[tuple[str, ...], list[int]]] = {}
    for j, rule in enumerate(rules):
        if len(rule.outputs) == 1 and len(rule.inputs) == 1:
            buckets.setdefault(rule.outputs[0], {}).setdefault(
                rule.inputs[0].elements, []).append(j)
    return sorted((i, j) for output, chains in buckets.items()
                  for elements, earlier in chains.items()
                  for j in buckets.get(elements[0], {}).get(
                      (output,) + elements[1:], ())
                  for i in earlier if i < j)
