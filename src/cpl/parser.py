"""Tokenizer, recursive-descent parser and canonical formatter for .cpl scripts.

Concrete grammar (ASCII, LL):

    scene     := "scene" IDENT "{" entities root? rules "}"
    entities  := "entities" "{" (IDENT ("as" IDENT)? ";")+ "}"
    root      := "root" IDENT ";"
    rules     := "rules" "{" rule* "}"
    rule      := (IDENT ":")? (selfloop | triple) ";"
    selfloop  := IDENT "->" IDENT              -- both sides the same concept
    triple    := refs "+" chains "->" terms ("where" rel ("," rel)*)?
    refs      := IDENT ("^" IDENT)*
    chains    := chain ("^" chain)*
    chain     := IDENT ("." IDENT)+ ("(" qty ")")?
    terms     := term ("^" term)*
    term      := IDENT ("." IDENT ("(" qty ")")?)+
    rel       := IDENT (("<" | ">" | "-" | "in") IDENT)+
    qty       := IDENT | NUMBER | IDENT "-" IDENT | NUMBER "-" NUMBER

Identifiers are ASCII letters, digits and underscores, starting with a
letter.  Spaces, tabs and carriage returns are blanks.  ``#`` starts a
comment that runs to the end of the line.  Positions are 1-based lines and
columns that count characters, so a tab is one column.  Relation chains
(``A - B < C``) desugar left-associatively into pairwise relations.  Scripts
may refer to a concept by its declared name or its alias; the parsed scene
holds the declared name at every mention, and the formatter writes the
alias back from ``Scene.entities``.

The token stream is a list and an array built by one regular expression:
each token's text and its start offset in the source.  Blanks, newlines and
comments are the prefix skipped before a token.  No token carries a kind:
a punctuation text is its own kind, a leading letter makes an IDENT
(keywords are IDENTs too), a leading digit a NUMBER, and the empty text is
EOF.  Lines and columns are worked out only where a ``Span`` is built (for
each rule, each quantity and each diagnostic, an ``ast.Diagnostic``) by
bisecting a table of line starts.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from typing import NamedTuple

from .ast import (
    Amount,
    Chain,
    ConceptId,
    Diagnostic,
    Quantity,
    Relation,
    RelationKind,
    ResultTerm,
    Rule,
    Scene,
    Span,
    error,
    normalize_relation,
)

KEYWORDS = frozenset({"scene", "entities", "root", "rules", "as", "where", "in"})


class _Abort(Exception):
    """Unrecoverable syntax error; carries the diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# One match per token, after the blanks, newlines and comments before it.
# Where no token starts, the matched text is empty: at the end of the
# source, or at a comment that runs to the end, that is EOF; anywhere else
# it is a character no token starts with.  Matching goes on past that first
# empty text, but what it finds there is dropped.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*"
    r"(->|[{}();:,+\-<>^.]|[A-Za-z][A-Za-z0-9_]*|[0-9]+|)")

_NEWLINE_RE = re.compile(r"\n")

_REL_OPS = frozenset({"<", ">", "-", "in"})


def _is_ident(text: str) -> bool:
    return text[:1].isalpha()


class ParseResult(NamedTuple):
    """Outcome of a parse: the scene when clean, otherwise the diagnostics."""

    scene: Scene | None
    diagnostics: tuple[Diagnostic, ...]


class _Parser:
    """Recursive descent over the token texts.  ``pos`` indexes them and
    never passes the EOF text ``""`` that ends them."""

    def __init__(self, source: str):
        texts: list[str] = []
        offsets = array("q")  # 8 bytes a token, not a pointer and an int
        add_text, add_offset = texts.append, offsets.append
        for m in _TOKEN_RE.finditer(source):
            add_text(m[1])
            add_offset(m.start(1))
        eof = texts.index("")
        del texts[eof + 1:], offsets[eof + 1:]
        self.texts = texts
        self.offsets = offsets  # start of each token in the source
        self.line_starts = [0]
        self.line_starts += [m.end() for m in _NEWLINE_RE.finditer(source)]
        end = offsets[eof]
        if end < len(source) and source[end] != "#":
            raise _Abort(error(f"unexpected character {source[end]!r}",
                               self.span(eof)))
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.entities: dict[str, str] = {}  # name or alias -> declared name
        self.declared: list[ConceptId] = []
        # Equal values a scene repeats, held once: the ``(name,)`` outputs
        # of a declared concept and the all-``None`` amounts of a length.
        self.singles: dict[str, tuple[str]] = {}
        self.blanks: dict[int, tuple[None, ...]] = {}

    # token helpers

    def span(self, pos: int) -> Span:
        """The source position of token ``pos``, worked out on demand."""
        offset = self.offsets[pos]
        line = bisect_right(self.line_starts, offset)
        return Span(line, offset - self.line_starts[line - 1] + 1)

    def unexpected(self, what: str) -> _Abort:
        text = self.texts[self.pos] or "end of input"
        return _Abort(error(f"expected {what}, found {text!r}",
                            self.span(self.pos)))

    def expect(self, text: str) -> None:
        """Step over ``text``, a punctuation mark or a keyword."""
        if self.texts[self.pos] != text:
            raise self.unexpected(repr(text))
        self.pos += 1

    def ident(self, what: str) -> int:
        """Step over an IDENT and return its index."""
        pos = self.pos
        if not _is_ident(self.texts[pos]):
            raise self.unexpected(what)
        self.pos = pos + 1
        return pos

    def report(self, message: str, pos: int) -> None:
        self.diagnostics.append(error(message, self.span(pos)))

    # entity handling

    def declare(self, name_pos: int, alias_pos: int | None) -> None:
        texts = self.texts
        for pos in (name_pos,) if alias_pos is None else (name_pos, alias_pos):
            ident = texts[pos]
            if ident in KEYWORDS:
                self.report(f"{ident!r} is a reserved word", pos)
                return
            if ident in self.entities:
                self.report(f"duplicate declaration of {ident!r}", pos)
                return
        name = texts[name_pos]
        alias = texts[alias_pos] if alias_pos is not None else None
        self.entities[name] = name
        if alias:
            self.entities[alias] = name
        self.declared.append(ConceptId(name, alias))

    def resolve(self, pos: int) -> str:
        text = self.texts[pos]
        name = self.entities.get(text)
        if name is None:
            self.report(f"unknown entity {text!r}", pos)
            return text
        return name

    def single(self, name: str) -> tuple[str]:
        """The one ``(name,)`` of a declared concept; an unknown name,
        already reported, is not kept."""
        one = self.singles.get(name)
        if one is None:
            one = (name,)
            if name in self.entities:
                self.singles[name] = one
        return one

    def resolve_ident(self, what: str) -> str:
        # A declared name is an IDENT, so a hit needs no further check.
        pos = self.pos
        name = self.entities.get(self.texts[pos])
        if name is None:
            return self.resolve(self.ident(what))
        self.pos = pos + 1
        return name

    # grammar

    def parse_scene(self) -> Scene:
        texts = self.texts
        self.expect("scene")  # token 0, where scene-wide errors sit
        name = texts[self.ident("scene name")]
        self.expect("{")
        self.expect("entities")
        self.expect("{")
        while _is_ident(texts[self.pos]):
            name_pos = self.pos
            self.pos += 1
            alias_pos = None
            if texts[self.pos] == "as":
                self.pos += 1
                alias_pos = self.ident("alias")
            self.expect(";")
            self.declare(name_pos, alias_pos)
        self.expect("}")
        if not self.declared:
            self.report("scene declares no entities", 0)
        root = None
        if texts[self.pos] == "root":
            self.pos += 1
            root = self.resolve_ident("root entity")
            self.expect(";")
        self.expect("rules")
        self.expect("{")
        rules: list[Rule] = []
        labels: set[str] = set()
        while _is_ident(texts[self.pos]):
            rule = self.parse_rule(len(rules) + 1)
            if rule.label:
                if rule.label in labels:
                    self.diagnostics.append(error(
                        f"duplicate rule label {rule.label!r}", rule.span))
                labels.add(rule.label)
            rules.append(rule)
        self.expect("}")
        self.expect("}")
        if texts[self.pos]:
            raise self.unexpected("end of input")
        return Scene(name, tuple(self.declared), root, tuple(rules))

    def parse_rule(self, ordinal: int) -> Rule:
        # Called at an IDENT, so the next text exists: at worst it is EOF.
        label = None
        start = self.pos
        if self.texts[start + 1] == ":":
            label = self.texts[start]
            self.pos += 2
        first = self.ident("entity name")
        if self.texts[self.pos] == "->":
            return self.parse_selfloop(label, ordinal, first)
        return self.parse_triple(label, ordinal, first, start)

    def parse_selfloop(self, label: str | None, ordinal: int, first: int) -> Rule:
        texts, entities = self.texts, self.entities
        self.pos += 1  # the "->"
        second = self.ident("entity name")
        # Either side may be the name or the alias; unknown texts compare
        # as written, and ``resolve`` reports the first side below.
        if (entities.get(texts[second], texts[second])
                != entities.get(texts[first], texts[first])):
            self.report(
                f"a self-loop must repeat the same concept, got "
                f"{texts[first]!r} -> {texts[second]!r}", second)
        if texts[self.pos] == "where":
            self.report("a self-loop rule cannot declare relations", self.pos)
            self.skip_to_semi()
        self.expect(";")
        return Rule(label, self.single(self.resolve(first)), (), (), (),
                    ordinal=ordinal, span=self.span(first))

    def skip_to_semi(self) -> None:
        while self.texts[self.pos] not in (";", ""):
            self.pos += 1

    def parse_triple(self, label: str | None, ordinal: int,
                     first: int, start: int) -> Rule:
        texts = self.texts
        names = [self.resolve(first)]
        while texts[self.pos] == "^":
            self.pos += 1
            names.append(self.resolve_ident("output entity"))
        outputs = self.single(names[0]) if len(names) == 1 else tuple(names)
        self.expect("+")
        chains = [self.parse_chain()]
        while texts[self.pos] == "^":
            self.pos += 1
            chains.append(self.parse_chain())
        self.expect("->")
        terms = [self.parse_term()]
        while texts[self.pos] == "^":
            self.pos += 1
            terms.append(self.parse_term())
        relations: list[Relation] = []
        if texts[self.pos] == "where":
            self.pos += 1
            relations.extend(self.parse_relation_chain())
            while texts[self.pos] == ",":
                self.pos += 1
                relations.extend(self.parse_relation_chain())
        self.expect(";")
        return Rule(label, outputs, tuple(chains), tuple(terms),
                    tuple(relations), ordinal=ordinal, span=self.span(start))

    def parse_chain(self) -> Chain:
        texts = self.texts
        first = self.pos
        elements = [self.resolve_ident("chain source")]
        while texts[self.pos] == ".":
            self.pos += 1
            elements.append(self.resolve_ident("chain element"))
        if len(elements) < 2:
            self.report("a chain needs at least a source and an effector", first)
        seen: set[str] = set()
        for name in elements:
            if name in seen:
                self.report(f"chain repeats {name!r}", first)
            seen.add(name)
        if texts[self.pos] == "(":
            span = self.span(self.pos)
            return Chain(tuple(elements), Quantity(self.parse_qty(), span))
        return Chain(tuple(elements))

    def parse_term(self) -> ResultTerm:
        texts = self.texts
        first = self.pos
        concepts = [self.resolve_ident("result entity")]
        qtys: list[Amount | None] = [None]
        while texts[self.pos] == ".":
            self.pos += 1
            concepts.append(self.resolve_ident("result entity"))
            qtys.append(self.parse_qty() if texts[self.pos] == "(" else None)
        if len(concepts) < 2:
            self.report("a result term needs at least two entities", first)
        if any(qtys):
            return ResultTerm(tuple(concepts), tuple(qtys))
        blank = self.blanks.get(len(qtys))
        if blank is None:
            blank = self.blanks[len(qtys)] = (None,) * len(qtys)
        return ResultTerm(tuple(concepts), blank)

    def parse_qty(self) -> Amount:
        self.pos += 1  # the "(" its callers found
        first = self.parse_amount_part()
        second = None
        if self.texts[self.pos] == "-":
            self.pos += 1
            second = self.parse_amount_part()
        self.expect(")")
        return Amount(first, second)

    def parse_amount_part(self) -> int | str:
        pos = self.pos
        text = self.texts[pos]
        if text[:1].isdigit():
            self.pos = pos + 1
            try:
                return int(text)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise _Abort(error(
                    f"number has too many digits ({len(text)})",
                    self.span(pos))) from None
        if _is_ident(text):
            self.pos = pos + 1
            return text
        raise _Abort(error(f"expected an amount, found {text!r}", self.span(pos)))

    def parse_relation_chain(self) -> list[Relation]:
        relations: list[Relation] = []
        left = self.resolve_ident("entity name")
        while True:
            op_pos = self.pos
            op = self.texts[op_pos]
            if op not in _REL_OPS:
                if not relations:
                    raise _Abort(error(
                        f"expected a relation operator, found {op!r}",
                        self.span(op_pos)))
                return relations
            self.pos += 1
            right = self.resolve_ident("entity name")
            if left == right:
                self.report(
                    f"concept {left!r} cannot relate to itself", op_pos)
            else:
                relations.append(normalize_relation(left, op, right))
            left = right


def parse_scene(source: str) -> ParseResult:
    """Parse a scene script into a Scene, or report positioned diagnostics.

    The scene is returned only when no errors were found; parsing is a pure
    function of the source text.
    """
    try:
        parser = _Parser(source)
    except _Abort as abort:
        return ParseResult(None, (abort.diagnostic,))
    try:
        scene = parser.parse_scene()
    except _Abort as abort:
        parser.diagnostics.append(abort.diagnostic)
        return ParseResult(None, tuple(parser.diagnostics))
    if parser.diagnostics:
        return ParseResult(None, tuple(parser.diagnostics))
    return ParseResult(scene, ())


_SURFACE = {
    RelationKind.SUB_CONCEPT: "<",
    RelationKind.ASSOCIATION: "-",
    RelationKind.CONTAINED_IN: "in",
}


def _format_chain(chain: Chain, short: dict[str, str]) -> str:
    text = ".".join(short[name] for name in chain.elements)
    if chain.quantity is not None:
        text += f"({chain.quantity.total.render()})"
    return text


def _format_term(term: ResultTerm, short: dict[str, str]) -> str:
    parts = []
    for name, qty in zip(term.concepts, term.qtys):
        text = short[name]
        if qty is not None:
            text += f"({qty.render()})"
        parts.append(text)
    return ".".join(parts)


def _format_rule(rule: Rule, short: dict[str, str]) -> str:
    prefix = f"{rule.label}: " if rule.label else ""
    if not rule.inputs:  # a self-loop
        name = short[rule.outputs[0]]
        return f"{prefix}{name} -> {name};"
    outputs = " ^ ".join(short[name] for name in rule.outputs)
    chains = " ^ ".join(_format_chain(ch, short) for ch in rule.inputs)
    terms = " ^ ".join(_format_term(term, short)
                       for term in rule.declared_results)
    text = f"{prefix}{outputs} + {chains} -> {terms}"
    if rule.relations:
        rels = ", ".join(
            f"{short[rel.left]} {_SURFACE[rel.kind]} {short[rel.right]}"
            for rel in rule.relations)
        text += f" where {rels}"
    return text + ";"


def format_scene(scene: Scene) -> str:
    """Render a scene to canonical text that reparses to an equal Scene.

    Every mention names a declared concept and is written as that
    concept's alias when it has one."""
    short = {c.name: c.abbrev or c.name for c in scene.entities}
    lines = [f"scene {scene.name} {{", "  entities {"]
    for concept in scene.entities:
        if concept.abbrev:
            lines.append(f"    {concept.name} as {concept.abbrev};")
        else:
            lines.append(f"    {concept.name};")
    lines.append("  }")
    if scene.root is not None:
        lines.append(f"  root {scene.root};")
    lines.append("  rules {")
    for rule in scene.rules:
        lines.append(f"    {_format_rule(rule, short)}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
