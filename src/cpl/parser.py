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
may refer to a concept by its declared name or its alias.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import NamedTuple

from .ast import (
    Amount,
    Chain,
    ConceptId,
    Quantity,
    Relation,
    ResultTerm,
    Rule,
    Scene,
    Span,
    normalize_relation,
)

KEYWORDS = frozenset({"scene", "entities", "root", "rules", "as", "where", "in"})


class Diagnostic(NamedTuple):
    """A positioned parser or checker message."""

    severity: str  # "error" or "warning"
    message: str
    line: int
    column: int
    span_length: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


def error(message: str, span: Span) -> Diagnostic:
    return Diagnostic("error", message, span.line, span.column, max(span.length, 1))


class _Abort(Exception):
    """Unrecoverable syntax error; carries the diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class Token(namedtuple("Token", "kind text line column")):
    __slots__ = ()

    @property
    def span(self) -> Span:
        return Span(self.line, self.column, len(self.text))


_PUNCT = {
    "->": "ARROW",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ";": "SEMI",
    ":": "COLON",
    ",": "COMMA",
    "+": "PLUS",
    "-": "MINUS",
    "<": "LT",
    ">": "GT",
    "^": "CARET",
    ".": "DOT",
}

# One match per token, after the blanks before it; the group that matched
# tells its kind.  The end-of-input group takes a comment on the last line
# with it, so EOF sits where that comment starts.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    r"(\n)"                      # 1 newline
    r"|((?:#[^\n]*)?\Z)"         # 2 end of input
    r"|(#[^\n]*)"                # 3 comment
    r"|(->|[{}();:,+\-<>^.])"    # 4 punctuation
    r"|([A-Za-z][A-Za-z0-9_]*)"  # 5 identifier
    r"|([0-9]+)"                 # 6 number
    r"|(.))")                    # 7 any other character


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    # tuple.__new__ builds a Token in C; calling Token() would run the
    # namedtuple's Python-level __new__, about a third of each token's cost.
    new = tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        if group == 1:
            line += 1
            line_start = m.end()
            continue
        if group == 3:
            continue
        column = m.start(group) - line_start + 1
        if group == 2:  # always the last match
            tokens.append(new(Token, ("EOF", "", line, column)))
            return tokens
        text = m[group]
        if group == 7:
            raise _Abort(Diagnostic(
                "error", f"unexpected character {text!r}", line, column))
        kind = _PUNCT.get(text) or ("IDENT" if group == 5 else "NUMBER")
        tokens.append(new(Token, (kind, text, line, column)))


class ParseResult(NamedTuple):
    """Outcome of a parse: the scene when clean, otherwise the diagnostics."""

    scene: Scene | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.scene is not None


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.entities: dict[str, ConceptId] = {}  # name and alias lookup
        self.declared: list[ConceptId] = []

    # token helpers

    def peek(self, ahead: int = 0) -> Token:
        # In range: EOF ends the list, advance() never passes it, and
        # peek(1) is only asked after an IDENT.
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            shown = tok.text if tok.kind != "EOF" else "end of input"
            raise _Abort(error(f"expected {what}, found {shown!r}", tok.span))
        if kind != "EOF":
            self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            shown = tok.text if tok.kind != "EOF" else "end of input"
            raise _Abort(error(f"expected {word!r}, found {shown!r}", tok.span))
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    def report(self, message: str, span: Span) -> None:
        self.diagnostics.append(error(message, span))

    # entity handling

    def declare(self, name_tok: Token, alias_tok: Token | None) -> None:
        idents = [(name_tok.text, name_tok)]
        if alias_tok is not None:
            idents.append((alias_tok.text, alias_tok))
        for ident, tok in idents:
            if ident in KEYWORDS:
                self.report(f"{ident!r} is a reserved word", tok.span)
                return
            if ident in self.entities:
                self.report(f"duplicate declaration of {ident!r}", tok.span)
                return
        alias = alias_tok.text if alias_tok else None
        concept = ConceptId(name_tok.text, alias, name_tok.span)
        self.entities[concept.name] = concept
        if alias:
            self.entities[alias] = concept
        self.declared.append(concept)

    def resolve(self, tok: Token) -> ConceptId:
        concept = self.entities.get(tok.text)
        if concept is None:
            self.report(f"unknown entity {tok.text!r}", tok.span)
            return ConceptId(tok.text, None, tok.span)
        return concept

    def resolve_ident(self, what: str) -> ConceptId:
        return self.resolve(self.expect("IDENT", what))

    # grammar

    def parse_scene(self) -> Scene:
        start = self.expect_keyword("scene")
        name = self.expect("IDENT", "scene name")
        self.expect("LBRACE", "'{'")
        self.expect_keyword("entities")
        self.expect("LBRACE", "'{'")
        while self.peek().kind == "IDENT":
            name_tok = self.advance()
            alias_tok = None
            if self.at_keyword("as"):
                self.advance()
                alias_tok = self.expect("IDENT", "alias")
            self.expect("SEMI", "';'")
            self.declare(name_tok, alias_tok)
        self.expect("RBRACE", "'}'")
        if not self.declared:
            self.report("scene declares no entities", start.span)
        root = None
        if self.at_keyword("root"):
            self.advance()
            root = self.resolve_ident("root entity")
            self.expect("SEMI", "';'")
        self.expect_keyword("rules")
        self.expect("LBRACE", "'{'")
        rules: list[Rule] = []
        labels: set[str] = set()
        while self.peek().kind == "IDENT":
            rule = self.parse_rule(len(rules) + 1)
            if rule.label:
                if rule.label in labels:
                    self.report(f"duplicate rule label {rule.label!r}", rule.span)
                labels.add(rule.label)
            rules.append(rule)
        self.expect("RBRACE", "'}'")
        self.expect("RBRACE", "'}'")
        self.expect("EOF", "end of input")
        return Scene(name.text, tuple(self.declared), root, tuple(rules), start.span)

    def parse_rule(self, ordinal: int) -> Rule:
        label = None
        start = self.peek()
        if self.peek().kind == "IDENT" and self.peek(1).kind == "COLON":
            label = self.advance().text
            self.advance()
        first = self.expect("IDENT", "entity name")
        if self.peek().kind == "ARROW":
            return self.parse_selfloop(label, ordinal, first)
        return self.parse_triple(label, ordinal, first, start)

    def parse_selfloop(self, label: str | None, ordinal: int, first: Token) -> Rule:
        self.expect("ARROW", "'->'")
        second = self.expect("IDENT", "entity name")
        if second.text != first.text:
            self.report(
                f"a self-loop must repeat the same concept, got "
                f"{first.text!r} -> {second.text!r}", second.span)
        if self.at_keyword("where"):
            self.report("a self-loop rule cannot declare relations",
                        self.peek().span)
            self.skip_to_semi()
        self.expect("SEMI", "';'")
        concept = self.resolve(first)
        return Rule(label, (concept,), (), (), (), self_loop=True,
                    ordinal=ordinal, span=first.span)

    def skip_to_semi(self) -> None:
        while self.peek().kind not in ("SEMI", "EOF"):
            self.advance()

    def parse_triple(self, label: str | None, ordinal: int,
                     first: Token, start: Token) -> Rule:
        outputs = [self.resolve(first)]
        while self.peek().kind == "CARET":
            self.advance()
            outputs.append(self.resolve_ident("output entity"))
        self.expect("PLUS", "'+'")
        chains_raw = [self.parse_chain()]
        while self.peek().kind == "CARET":
            self.advance()
            chains_raw.append(self.parse_chain())
        self.expect("ARROW", "'->'")
        terms = [self.parse_term()]
        while self.peek().kind == "CARET":
            self.advance()
            terms.append(self.parse_term())
        relations: list[Relation] = []
        if self.at_keyword("where"):
            self.advance()
            relations.extend(self.parse_relation_chain())
            while self.peek().kind == "COMMA":
                self.advance()
                relations.extend(self.parse_relation_chain())
        self.expect("SEMI", "';'")
        chains = [self.assemble_quantity(ch, outputs, terms) for ch in chains_raw]
        return Rule(label, tuple(outputs), tuple(chains), tuple(terms),
                    tuple(relations), ordinal=ordinal, span=start.span)

    def parse_chain(self) -> tuple[tuple[ConceptId, ...], Amount | None, Span | None]:
        first = self.peek()
        elements = [self.resolve_ident("chain source")]
        while self.peek().kind == "DOT":
            self.advance()
            elements.append(self.resolve_ident("chain element"))
        if len(elements) < 2:
            self.report("a chain needs at least a source and an effector",
                        first.span)
        seen: set[str] = set()
        for concept in elements:
            if concept.name in seen:
                self.report(f"chain repeats {concept.name!r}", first.span)
            seen.add(concept.name)
        qty = qty_span = None
        if self.peek().kind == "LPAREN":
            qty_span = self.peek().span
            qty = self.parse_qty()
        return tuple(elements), qty, qty_span

    def parse_term(self) -> ResultTerm:
        concepts = [self.resolve_ident("result entity")]
        qtys: list[Amount | None] = [None]
        while self.peek().kind == "DOT":
            self.advance()
            concepts.append(self.resolve_ident("result entity"))
            qtys.append(self.parse_qty() if self.peek().kind == "LPAREN" else None)
        if len(concepts) < 2:
            self.report("a result term needs at least two entities",
                        self.peek().span)
        return ResultTerm(tuple(concepts), tuple(qtys))

    def parse_qty(self) -> Amount:
        self.expect("LPAREN", "'('")
        first = self.parse_amount_part()
        second = None
        if self.peek().kind == "MINUS":
            self.advance()
            second = self.parse_amount_part()
        self.expect("RPAREN", "')'")
        return Amount(first, second)

    def parse_amount_part(self) -> int | str:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            try:
                return int(tok.text)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise _Abort(error(
                    f"number has too many digits ({len(tok.text)})",
                    tok.span)) from None
        if tok.kind == "IDENT":
            self.advance()
            return tok.text
        raise _Abort(error(f"expected an amount, found {tok.text!r}", tok.span))

    _REL_OPS = {"LT": "<", "GT": ">", "MINUS": "-"}

    def parse_relation_chain(self) -> list[Relation]:
        relations: list[Relation] = []
        left = self.resolve_ident("entity name")
        while True:
            tok = self.peek()
            if tok.kind in self._REL_OPS:
                op = self._REL_OPS[tok.kind]
                self.advance()
            elif tok.kind == "IDENT" and tok.text == "in":
                op = "in"
                self.advance()
            else:
                if not relations:
                    raise _Abort(error(
                        f"expected a relation operator, found {tok.text!r}",
                        tok.span))
                return relations
            right = self.resolve_ident("entity name")
            if left.name == right.name:
                self.report(
                    f"concept {left.name!r} cannot relate to itself", tok.span)
            else:
                relations.append(normalize_relation(left, op, right, tok.span))
            left = right

    def assemble_quantity(self,
                          raw: tuple[tuple[ConceptId, ...], Amount | None, Span | None],
                          outputs: list[ConceptId],
                          terms: list[ResultTerm]) -> Chain:
        """Join the chain's total with taken/remainder found on result terms.

        The split form declares the moved part as ``O.F(y)`` and the
        remainder as the original chain ``S...F(x-y)``; amounts in other
        positions stay surface-only.
        """
        elements, total, span = raw
        if total is None:
            return Chain(elements)
        names = tuple(c.name for c in elements)
        output_names = {o.name for o in outputs}
        taken = remainder = None
        for term in terms:
            term_names = term.names()
            last_qty = term.qtys[-1] if term.qtys else None
            if last_qty is None:
                continue
            if (taken is None and len(term_names) == 2
                    and term_names[0] in output_names
                    and term_names[1] == names[-1]):
                taken = last_qty
            elif remainder is None and term_names == names:
                remainder = last_qty
        return Chain(elements, Quantity(total, taken, remainder, span))


def parse_scene(source: str) -> ParseResult:
    """Parse a scene script into a Scene, or report positioned diagnostics.

    The scene is returned only when no errors were found; parsing is a pure
    function of the source text.
    """
    try:
        tokens = tokenize(source)
    except _Abort as abort:
        return ParseResult(None, (abort.diagnostic,))
    parser = _Parser(tokens)
    try:
        scene = parser.parse_scene()
    except _Abort as abort:
        parser.diagnostics.append(abort.diagnostic)
        return ParseResult(None, tuple(parser.diagnostics))
    if parser.diagnostics:
        return ParseResult(None, tuple(parser.diagnostics))
    return ParseResult(scene, ())


def _format_chain(chain: Chain) -> str:
    text = ".".join(c.short() for c in chain.elements)
    if chain.quantity is not None and chain.quantity.total is not None:
        text += f"({chain.quantity.total.render()})"
    return text


def _format_rule(rule: Rule) -> str:
    prefix = f"{rule.label}: " if rule.label else ""
    if rule.self_loop:
        name = rule.outputs[0].short()
        return f"{prefix}{name} -> {name};"
    outputs = " ^ ".join(c.short() for c in rule.outputs)
    chains = " ^ ".join(_format_chain(ch) for ch in rule.inputs)
    terms = " ^ ".join(term.render() for term in rule.declared_results)
    text = f"{prefix}{outputs} + {chains} -> {terms}"
    if rule.relations:
        rels = ", ".join(rel.surface() for rel in rule.relations)
        text += f" where {rels}"
    return text + ";"


def format_scene(scene: Scene) -> str:
    """Render a scene to canonical text that reparses to an equal Scene."""
    lines = [f"scene {scene.name} {{", "  entities {"]
    for concept in scene.entities:
        if concept.abbrev:
            lines.append(f"    {concept.name} as {concept.abbrev};")
        else:
            lines.append(f"    {concept.name};")
    lines.append("  }")
    if scene.root is not None:
        lines.append(f"  root {scene.root.name};")
    lines.append("  rules {")
    for rule in scene.rules:
        lines.append(f"    {_format_rule(rule)}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
