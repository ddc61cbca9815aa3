"""Straightforward code kept as differential oracles for ``cpl``.

The graph oracles are the checker's recursive Tarjan, the forest's fixpoint
closure, the hierarchy builder's edge-scan reachability and the hierarchy's
recursive acyclicity test as they stood before the traversals moved into
``cpl.graph``.  The scene-fact oracles are the grid's clustering over
linearly scanned counts and the all-pairs reverse-rule scans of the forest
and the hierarchy, as they stood before those facts were looked up by key;
both scans call ``_is_reverse_pair``, the reverse-pair test as it stood
before it compared whole chains, and both give rule positions.
The tokenizer oracle is the character loop that scanned ``.cpl`` text
before the one-pass regex tokenizer, and ``parse_scene`` is the parser as
it stood before it read flat token texts: it walks that loop's token
records, kind, text, line and column each.  ``validate_rule`` is the rule
check as it stood before it compared sorted lists of term names: it
compares ``Counter`` multisets, and conserves amounts with
``check_quantity``, this module's own copy of the checker's conservation
rules: it picks the taken and the remainder term by index from the terms
that write a last amount.  Nothing but the ``Contradiction`` record
comes from ``cpl.check``.  The
forest oracles are
``build_forest`` and its ``_collect_edges`` as they stood before the forest
was layered and placed in one walk each: they merge a raw edge list in a
second loop and rescan every merged edge once per tree level, and build
their own sub-concept and association lookups.  The attach
oracles are ``primary_clusters`` as it stood before each concept's top
count and tied partners were worked out once, here ``rescan_clusters``,
which rebuilds every attach candidate per step, and the hierarchy's
``_Builder`` and ``build_hierarchy`` as they stood before one ``link``
replaced ``add_node`` and ``add_edge``: they keep nodes and edges in lists
beside their index and remove retried paths with ``list.remove``.  The
ensemble argument lost its default when the ensemble became the grid.
``to_csv`` is the grid's CSV format as it stood before it read the
neighbour map directly: it formats every cell of the dense rows.
``to_json`` is the grid's JSON format as it stood before it streamed by
row: one ``json.dumps`` of the whole payload.
``scene_contradictions`` is the consistency check as it stood before each
cycle's rules were found in one pass: it rescans every sorted edge of a
kind once per cycle component, and finds the components with the
recursive ``strongly_connected``.
``build_hierarchy`` takes its repeat rules from ``repeat_rules``, its
left-hand sides from ``lhs_concepts`` and its root from ``select_root``, not
from the code under test.  It returns an ``EagerBuild``: the hierarchy
build as it stood before the trace was recounted when read, logging every
ensemble weight update as it is made.
``lhs_concepts`` and
``used_concepts`` are the rule and scene methods that kept the first
concept record under each name, before they returned names only.
``extract_cycles`` and its ``_pair_cycles``, ``_loop_cycles``,
``_rotation_key`` and ``simple_cycles`` are the cycle extraction as it
stood before the associations were indexed by concept: every self-loop
rule walks its concept's subtree and scans every association, every
rotation of a walk is compared, successor lists are sorted on every visit
and each occurrence's source path is worked out every time it is cited.
The forest oracles keep their own ``_Edge`` record and the forest's path
helpers ``_subtree_occurrences``, ``_climb``, ``_tree_base``,
``_source_path`` and ``_target_path`` as they stood before the forest kept
only each edge's origin and climbed each occurrence once to its base; they
borrow no private name from ``cpl.forest``.
They recurse and rescan freely, so use them on small inputs only.

The oracles borrow no code from ``cpl``: they import only the records
they build and compare and the parser's ``KEYWORDS``
(``tests/test_records.py`` reads the imports to hold this).  They keep
their own copies of ``error``, ``normalize_relation``, ``derive_result``,
``split_result``, ``reachable`` and the parser's ``_Abort``, so a fault
in one of those cannot hide in both sides of a differential test.

Every oracle reads a concept mention as what it now is, the declared name
(``_names`` is the checker's term-to-names helper as it stood before terms
held names); each keeps its own algorithm.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from collections import Counter, deque
from itertools import chain, combinations, product
from typing import NamedTuple

from cpl.ast import (
    Amount,
    Chain,
    ConceptId,
    Diagnostic,
    Quantity,
    Relation,
    ResultTerm,
    Rule,
    Scene,
    Span,
)
from cpl.check import Contradiction
from cpl.forest import (
    Cycle,
    CycleReport,
    Occurrence,
    OccurrenceForest,
    UniLink,
)
from cpl.grid import Clustering, FrequencyGrid
from cpl.hierarchy import Hierarchy, TraceEvent
from cpl.parser import KEYWORDS, ParseResult


class _Abort(Exception):
    """Unrecoverable syntax error; carries the diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


def error(message: str, span: Span) -> Diagnostic:
    return Diagnostic(message, span.line, span.column)


def normalize_relation(left: str, op: str, right: str) -> Relation:
    """``x > y`` is flipped to ``y < x``; ``<``, ``-`` and ``in`` are the
    kind as written; relating a concept to itself is invalid."""
    if left == right:
        raise ValueError(f"concept {left!r} cannot relate to itself")
    if op == "<":
        return Relation("<", left, right)
    if op == ">":
        return Relation("<", right, left)
    if op == "-":
        return Relation("-", left, right)
    if op == "in":
        return Relation("in", left, right)
    raise ValueError(f"unknown relation operator {op!r}")


def derive_result(outputs, inputs) -> list[tuple[str, ...]]:
    """For output O and chain S.M1...F the term O.F...M1.S, outputs outer."""
    return [(output,) + chain.elements[::-1]
            for output in outputs for chain in inputs]


def split_result(outputs, chain: Chain) -> list[tuple[str, ...]]:
    """O.F for each output, then the untouched chain S...F."""
    return [(output, chain.effector) for output in outputs] + [chain.elements]


def reachable(adjacency, starts) -> set[str]:
    """The starts plus every node a path leads to from one of them."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for nxt in adjacency.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def strongly_connected(edges) -> list[list[str]]:
    """Tarjan over the edge set; deterministic via sorted adjacency.  Only
    components of two or more members, each sorted."""
    adjacency: dict[str, list[str]] = {}
    for child, parent in edges:
        adjacency.setdefault(child, []).append(parent)
        adjacency.setdefault(parent, [])
    for node in adjacency:
        adjacency[node].sort()
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[list[str]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for nxt in adjacency[node]:
            if nxt not in index:
                visit(nxt)
                low[node] = min(low[node], low[nxt])
            elif nxt in on_stack:
                low[node] = min(low[node], index[nxt])
        if low[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            components.append(component)

    for node in sorted(adjacency):
        if node not in index:
            visit(node)
    return [sorted(c) for c in components if len(c) > 1]


def closure(edges, start) -> set[str]:
    """Fixpoint: add every edge's child once its parent is reached."""
    seen = set(start)
    changed = True
    while changed:
        changed = False
        for parent, child in edges:
            if parent in seen and child not in seen:
                seen.add(child)
                changed = True
    return seen


def creates_cycle(edges, parent: str, child: str) -> bool:
    """Whether adding ``parent -> child`` closes a cycle, rescanning the
    edge list for every visited node."""
    frontier = [child]
    seen = set()
    while frontier:
        node = frontier.pop()
        if node == parent:
            return True
        for a, b in edges:
            if a == node and b not in seen:
                seen.add(b)
                frontier.append(b)
    return False


def is_acyclic(nodes, edges) -> bool:
    """Recursive depth-first search with in-progress marks."""
    adjacency: dict[str, list[str]] = {n: [] for n in nodes}
    for parent, child in edges:
        adjacency[parent].append(child)
    state: dict[str, int] = {}

    def visit(node: str) -> bool:
        state[node] = 1
        for nxt in adjacency[node]:
            mark = state.get(nxt)
            if mark == 1 or (mark is None and not visit(nxt)):
                return False
        state[node] = 2
        return True

    return all(state.get(n) == 2 or visit(n) for n in nodes)


def grid_count(grid, a: str, b: str) -> int:
    """``FrequencyGrid.count`` by ``tuple.index`` scans."""
    if a == b or a not in grid.concepts or b not in grid.concepts:
        return 0
    return grid.counts[grid.concepts.index(a)][grid.concepts.index(b)]


def to_csv(grid: FrequencyGrid) -> str:
    """``grid.to_csv`` over the dense rows of ``grid.counts``."""
    lines = ["," + ",".join(grid.concepts)]
    for i, (name, row) in enumerate(zip(grid.concepts, grid.counts)):
        cells = ["" if i == j else str(count) for j, count in enumerate(row)]
        lines.append(name + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def to_json(grid: FrequencyGrid, clustering: Clustering) -> str:
    """The text of ``grid.json_chunks`` as one ``json.dumps`` of the whole
    payload, the dense rows of ``grid.counts`` included."""
    ordered = sorted(clustering.clusters, key=lambda c: (-len(c), min(c)))
    payload = {
        "format_version": 1,
        "concepts": list(grid.concepts),
        "counts": [list(row) for row in grid.counts],
        "clusters": [sorted(cluster) for cluster in ordered],
        "secondary_links": [list(link) for link in clustering.secondary_links],
    }
    return json.dumps(payload, indent=2) + "\n"


def _outside_mass(grid: FrequencyGrid, pair: tuple[str, str]) -> int:
    a, b = pair
    return sum(
        grid_count(grid, member, other)
        for member in pair
        for other in grid.concepts
        if other not in pair
    )


def primary_clusters(grid: FrequencyGrid) -> Clustering:
    """The greedy clustering, rescanning every concept for each lookup.

    Mutual-best pairs seed clusters first, strongest count first; equal
    pairs competing for a concept are ordered by the smaller combined
    count-mass to third parties (the more exclusive bond wins), then by
    name.  Remaining concepts then attach one at a time: a concept may join
    the cluster of its best non-seeded partner provided that partner has no
    stronger tie among its own cluster and the still unclustered concepts.
    Whatever is left stays a singleton.
    """
    names = grid.concepts
    best: dict[str, int] = {
        name: max((grid_count(grid, name, other)
                   for other in names if other != name), default=0)
        for name in names
    }

    mutual = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
        if grid_count(grid, a, b) > 0
        and grid_count(grid, a, b) == best[a] == best[b]
    ]
    mutual.sort(key=lambda pair: (
        -grid_count(grid, *pair), _outside_mass(grid, pair),
        tuple(sorted(pair))))

    clusters: list[list[str]] = []
    membership: dict[str, int] = {}
    seeded: set[str] = set()
    for a, b in mutual:
        if a in seeded or b in seeded:
            continue
        membership[a] = membership[b] = len(clusters)
        clusters.append([a, b])
        seeded.update((a, b))

    def gate(target: str) -> int:
        """Best count the target holds toward its own cluster or the
        unclustered concepts."""
        scope = [
            other for other in names
            if other != target
            and (other not in membership
                 or membership.get(other) == membership.get(target))
        ]
        return max((grid_count(grid, target, other) for other in scope),
                   default=0)

    while True:
        candidates: list[tuple[int, str, str]] = []
        for name in names:
            if name in membership:
                continue
            partners = [
                (other, grid_count(grid, name, other))
                for other in names
                if other != name and other not in seeded
                and grid_count(grid, name, other) > 0
            ]
            if not partners:
                continue
            top = max(count for _, count in partners)
            for other, count in partners:
                if count == top and count >= gate(other):
                    candidates.append((count, name, other))
        if not candidates:
            break
        count, name, other = min(
            candidates, key=lambda c: (-c[0], c[1], c[2]))
        if other in membership:
            membership[name] = membership[other]
            clusters[membership[other]].append(name)
        else:
            membership[name] = membership[other] = len(clusters)
            clusters.append([other, name])

    for name in names:
        if name not in membership:
            membership[name] = len(clusters)
            clusters.append([name])

    return Clustering(tuple(tuple(c) for c in clusters))


def _is_reverse_pair(a: Rule, b: Rule) -> bool:
    """``is_reverse_pair`` as it stood before it compared whole chains."""
    if a is b or not a.inputs or not b.inputs:
        return False
    if len(a.outputs) != 1 or len(b.outputs) != 1:
        return False
    if len(a.inputs) != 1 or len(b.inputs) != 1:
        return False
    chain_a, chain_b = a.inputs[0], b.inputs[0]
    if len(chain_a.elements) != len(chain_b.elements):
        return False
    tail_a = tuple(chain_a.elements[1:])
    tail_b = tuple(chain_b.elements[1:])
    return (
        a.outputs[0] == chain_b.source
        and b.outputs[0] == chain_a.source
        and tail_a == tail_b
    )


def reverse_pairs(rules) -> list[tuple[int, int]]:
    """Positions ``(i, j)``, ``i < j``, of every pair of rules that
    ``_is_reverse_pair`` accepts, in scene order."""
    return [(i, j) for i in range(len(rules))
            for j in range(i + 1, len(rules))
            if _is_reverse_pair(rules[i], rules[j])]


def repeat_rules(scene) -> set[int]:
    """Positions of rules that reverse an earlier, non-repeat rule, by
    checking every earlier rule for each rule."""
    repeats: set[int] = set()
    rules = scene.rules
    for j, later in enumerate(rules):
        for i in range(j):
            if i not in repeats and _is_reverse_pair(rules[i], later):
                repeats.add(j)
                break
    return repeats


def _names(term) -> tuple[str, ...]:
    return tuple(term)


def _first_by_name(concepts) -> tuple[str, ...]:
    """The first concept seen under each name, in first-appearance order."""
    seen: dict[str, str] = {}
    for concept in concepts:
        seen.setdefault(concept, concept)
    return tuple(seen.values())


def lhs_concepts(rule: Rule) -> tuple[str, ...]:
    """Distinct left-hand-side concepts, first-appearance order."""
    return _first_by_name(chain(
        rule.outputs, *(ch.elements for ch in rule.inputs)))


def mentioned_concepts(rule: Rule) -> tuple[str, ...]:
    """Every concept the rule touches anywhere, first-appearance order."""
    return _first_by_name(chain(
        rule.outputs, *(ch.elements for ch in rule.inputs),
        *(term.concepts for term in rule.declared_results),
        *((rel.left, rel.right) for rel in rule.relations)))


def used_concepts(scene: Scene) -> tuple[str, ...]:
    """Concepts mentioned by at least one rule, first-appearance order."""
    return _first_by_name(chain.from_iterable(
        mentioned_concepts(rule) for rule in scene.rules))


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.column)


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


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[0-9]+")


def tokenize(source: str) -> list[Token]:
    """One loop iteration per character; a comment does not advance the
    column.  Raises ``cpl.parser._Abort`` on a character no token starts
    with."""
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("->", i):
            tokens.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(Token("IDENT", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(Token("NUMBER", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise _Abort(Diagnostic(f"unexpected character {ch!r}", line, col))
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.entities: dict[str, str] = {}  # name or alias -> declared name
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
        concept = ConceptId(name_tok.text, alias)
        self.entities[concept.name] = concept.name
        if alias:
            self.entities[alias] = concept.name
        self.declared.append(concept)

    def resolve(self, tok: Token) -> str:
        name = self.entities.get(tok.text)
        if name is None:
            self.report(f"unknown entity {tok.text!r}", tok.span)
            return tok.text
        return name

    def resolve_ident(self, what: str) -> str:
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
        return Scene(name.text, tuple(self.declared), root, tuple(rules))

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
        return Rule(label, (concept,), (), (), (),
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
        chains = [self.parse_chain()]
        while self.peek().kind == "CARET":
            self.advance()
            chains.append(self.parse_chain())
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
        return Rule(label, tuple(outputs), tuple(chains), tuple(terms),
                    tuple(relations), ordinal=ordinal, span=start.span)

    def parse_chain(self) -> Chain:
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
            if concept in seen:
                self.report(f"chain repeats {concept!r}", first.span)
            seen.add(concept)
        quantity = None
        if self.peek().kind == "LPAREN":
            span = self.peek().span
            quantity = Quantity(self.parse_qty(), span)
        return Chain(tuple(elements), quantity)

    def parse_term(self) -> ResultTerm:
        first = self.peek()
        concepts = [self.resolve_ident("result entity")]
        qtys: list[Amount | None] = [None]
        while self.peek().kind == "DOT":
            self.advance()
            concepts.append(self.resolve_ident("result entity"))
            qtys.append(self.parse_qty() if self.peek().kind == "LPAREN" else None)
        if len(concepts) < 2:
            self.report("a result term needs at least two entities",
                        first.span)
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
            if left == right:
                self.report(
                    f"concept {left!r} cannot relate to itself", tok.span)
            else:
                relations.append(normalize_relation(left, op, right))
            left = right


def parse_scene(source: str) -> ParseResult:
    """``cpl.parser.parse_scene`` over ``tokenize``'s token records."""
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


def _acceptable_counters(rule: Rule) -> list[Counter]:
    """Acceptable result multisets: per chain either the inverted term or,
    when the chain carries an amount, the split form."""
    per_chain: list[list[list[tuple[str, ...]]]] = []
    for chain in rule.inputs:
        inverted = [_names(t) for t in derive_result(rule.outputs, [chain])]
        choice = [inverted]
        if chain.quantity is not None:
            choice.append([_names(t) for t in split_result(rule.outputs, chain)])
        per_chain.append(choice)
    variants = []
    for combo in product(*per_chain):
        counter: Counter = Counter()
        for terms in combo:
            counter.update(terms)
        variants.append(counter)
    return variants


def check_quantity(rule: Rule, chain: Chain) -> list[Diagnostic]:
    """Conservation of ``chain``'s total over the split amounts its rule's
    terms write: taken on the first ``O.F`` term with a last amount, the
    remainder on the first other such term that repeats the chain."""
    qty, cite = chain.quantity, rule.cite
    written = [(i, _names(term.concepts), term.qtys[-1])
               for i, term in enumerate(rule.declared_results)
               if term.qtys[-1] is not None]
    took = next(((i, amount) for i, names, amount in written
                 if len(names) == 2 and names[0] in rule.outputs
                 and names[1] == _names(chain.elements)[-1]), (None, None))
    left = next((amount for i, names, amount in written
                 if i != took[0] and names == _names(chain.elements)), None)
    taken = took[1]
    if taken is None or taken.value() is None:
        return []
    if taken.value() < 0:
        return [error(f"quantity taken {taken.render()} is negative ({cite})",
                      qty.span)]
    total = qty.total.value()
    if total is not None and taken.value() > total:
        return [error(f"quantity taken {taken.render()} exceeds total "
                      f"{qty.total.render()} ({cite})", qty.span)]
    if (total is not None and left is not None and left.value() is not None
            and taken.value() + left.value() != total):
        return [error(f"quantity does not balance: taken {taken.render()} "
                      f"plus remainder {left.render()} is not total "
                      f"{qty.total.render()} ({cite})", qty.span)]
    return []


def validate_rule(rule: Rule) -> list[Diagnostic]:
    """``cpl.check.validate_rule`` with each multiset of terms a ``Counter``
    and its own ``check_quantity``."""
    if not rule.inputs:
        return []
    diagnostics: list[Diagnostic] = []
    declared = Counter(_names(term.concepts) for term in rule.declared_results)
    if declared not in _acceptable_counters(rule):
        expected = " ^ ".join(
            ".".join(_names(t)) for t in derive_result(rule.outputs, rule.inputs))
        diagnostics.append(error(
            f"results of {rule.cite} do not match the derivation; "
            f"expected {expected}", rule.span))
    for chain in rule.inputs:
        if chain.quantity is not None:
            diagnostics.extend(check_quantity(rule, chain))
    return diagnostics


def contradiction_span(scene: Scene, contradiction) -> Span:
    """The span of the last rule in scene order that the contradiction
    cites, found by a scan of every rule; an empty span without one."""
    cited = set(contradiction.rules)
    span = Span()
    for rule in scene.rules:
        if rule.cite in cited:
            span = rule.span
    return span


def _cites(rules) -> tuple[str, ...]:
    """Each rule's cite once, in first-mention order."""
    return tuple(dict.fromkeys(rule.cite for rule in rules))


def scene_contradictions(scene: Scene) -> list[Contradiction]:
    """Every cross-rule violation, sorted by kind and concepts; a cycle's
    rules come from a rescan of every edge of its kind."""
    sub_edges: dict[tuple[str, str], list[Rule]] = {}
    assoc_edges: dict[frozenset[str], list[Rule]] = {}
    contained_edges: dict[tuple[str, str], list[Rule]] = {}
    for rule in scene.rules:
        for rel in rule.relations:
            if rel.kind == "-":
                assoc_edges.setdefault(
                    frozenset((rel.left, rel.right)), []).append(rule)
            elif rel.kind == "<":
                sub_edges.setdefault((rel.left, rel.right), []).append(rule)
            else:
                contained_edges.setdefault(
                    (rel.left, rel.right), []).append(rule)
    found: list[Contradiction] = []
    for (child, parent), rules in sorted(sub_edges.items()):
        reverse = sub_edges.get((parent, child))
        if reverse and child < parent:
            found.append(Contradiction(
                "reversed-sub", (child, parent), _cites(rules + reverse),
                f"'{child} < {parent}' ({_cites(rules)[0]}) contradicts "
                f"'{parent} < {child}' ({_cites(reverse)[0]})"))
    for pair, assoc_rules in sorted(assoc_edges.items(),
                                    key=lambda item: sorted(item[0])):
        a, b = sorted(pair)
        for child, parent in ((a, b), (b, a)):
            sub_rules = sub_edges.get((child, parent))
            if sub_rules:
                found.append(Contradiction(
                    "sub-vs-assoc", (child, parent),
                    _cites(sub_rules + assoc_rules),
                    f"'{child} < {parent}' ({_cites(sub_rules)[0]}) "
                    f"contradicts the association '{a} - {b}' "
                    f"({_cites(assoc_rules)[0]})"))
    for kind, edges, smallest, prefix in (
            ("sub-cycle", sub_edges, 3, "sub-concept relations form"),
            ("containment-cycle", contained_edges, 2, "containment forms")):
        for component in strongly_connected(edges):
            if len(component) < smallest:
                continue
            rules = []
            for edge, edge_rules in sorted(edges.items()):
                if edge[0] in component and edge[1] in component:
                    rules.extend(edge_rules)
            found.append(Contradiction(
                kind, tuple(component), _cites(rules),
                f"{prefix} a cycle through "
                f"{', '.join(component)} ({', '.join(_cites(rules))})"))
    found.sort(key=lambda c: (c.kind, c.concepts))
    return found


class _Edge(NamedTuple):
    parent: str
    child: str
    contained: bool
    origin: str


def _collect_edges(scene: Scene) -> list[_Edge]:
    sub = {(rel.left, rel.right)
           for rule in scene.rules for rel in rule.relations
           if rel.kind == "<"}
    assoc = {frozenset((rel.left, rel.right))
             for rule in scene.rules for rel in rule.relations
             if rel.kind == "-"}
    edges: list[_Edge] = []
    for rule in scene.rules:
        for rel in rule.relations:
            if rel.kind == "<":
                edges.append(_Edge(rel.right, rel.left, False, rule.cite))
            elif rel.kind == "in":
                edges.append(_Edge(rel.right, rel.left, True, rule.cite))
    for rule in scene.rules:
        if not rule.inputs:
            continue
        placed = {
            rel.left for rel in rule.relations
            if rel.kind == "<"
        }
        for output in rule.outputs:
            if output in placed:
                continue
            for chain in rule.inputs:
                source, effector = chain.source, chain.effector
                if (effector, source) not in sub:
                    continue
                if frozenset((output, source)) in assoc:
                    continue
                if output != source:
                    edges.append(_Edge(source, output, False, rule.cite))
    return edges


def build_forest(scene: Scene) -> OccurrenceForest:
    """Nest every used concept of a consistent scene.

    Without rules the declared entities stand alone as roots.
    """
    if not scene.rules:
        roots = [Occurrence(c.name, None, "declared") for c in scene.entities]
        return OccurrenceForest(
            roots,
            {occ.concept: [occ] for occ in roots},
            {occ.concept: occ for occ in roots})

    raw = _collect_edges(scene)

    # Merge duplicate parent/child pairs: position of the first mention wins,
    # a non-containment mention overrides the containment flag.
    merged: dict[tuple[str, str], _Edge] = {}
    noncontained_at: dict[tuple[str, str], int] = {}
    for idx, edge in enumerate(raw):
        key = (edge.parent, edge.child)
        if key not in merged:
            merged[key] = edge
        elif merged[key].contained and not edge.contained:
            merged[key] = _Edge(edge.parent, edge.child, False, merged[key].origin)
        if not edge.contained and key not in noncontained_at:
            noncontained_at[key] = idx

    used = list(used_concepts(scene))
    root_name = scene.root
    if root_name is not None and root_name not in used:
        used.insert(0, root_name)

    with_parent = {child for _, child in merged}
    if root_name is not None:
        for name in used:
            if name != root_name and name not in with_parent:
                merged.setdefault(
                    (root_name, name), _Edge(root_name, name, False, "root"))
        root_names = [root_name]
    else:
        root_names = [n for n in used if n not in with_parent]

    # Promote whatever the edges cannot reach (mixed relation cycles have no
    # entry point); the choice is by name so rule order cannot matter.
    children: dict[str, list[str]] = {}
    for parent, child in merged:
        children.setdefault(parent, []).append(child)
    reached = reachable(children, root_names)
    while unreachable := set(used) - reached:
        name = min(unreachable)
        if root_name is not None:
            merged.setdefault(
                (root_name, name), _Edge(root_name, name, False, "root"))
        else:
            root_names.append(name)
        reached |= reachable(children, [name])

    # Layer concepts outward from the roots; a concept's primary placement is
    # its first non-containment edge from an already layered parent, keeping
    # the primary parent chain acyclic by construction.
    position = {key: i for i, key in enumerate(merged)}
    primary_edge: dict[str, tuple[str, str]] = {}
    layered = set(root_names)
    while True:
        additions: dict[str, list[tuple[str, str]]] = {}
        for key in merged:
            parent, child = key
            if parent in layered and child not in layered:
                additions.setdefault(child, []).append(key)
        if not additions:
            break
        for child, keys in additions.items():
            ranked = sorted(keys, key=lambda k: (
                merged[k].contained,
                noncontained_at.get(k, len(raw) + position[k]),
                position[k]))
            primary_edge[child] = ranked[0]
        layered.update(additions)

    primary: dict[str, Occurrence] = {}
    occurrences: dict[str, list[Occurrence]] = {n: [] for n in used}
    roots: list[Occurrence] = []
    for name in root_names:
        occ = Occurrence(name, None, "root")
        primary[name] = occ
        occurrences[name].append(occ)
        roots.append(occ)

    pending = list(merged)
    while pending:
        progress = False
        still: list[tuple[str, str]] = []
        for key in pending:
            parent, child = key
            parent_occ = primary.get(parent)
            if parent_occ is None:
                still.append(key)
                continue
            edge = merged[key]
            occ = Occurrence(child, parent_occ, edge.origin, edge.contained)
            parent_occ.children.append(occ)
            occurrences.setdefault(child, []).append(occ)
            if primary_edge.get(child) == key and child not in primary:
                primary[child] = occ
            progress = True
        if not progress:
            break  # defensive: every layered concept realizes eventually
        pending = still

    return OccurrenceForest(roots, occurrences, primary)


def rescan_clusters(grid: FrequencyGrid) -> Clustering:
    """Greedy clustering by strongest counts.

    Mutual-best pairs seed clusters first, strongest count first; equal
    pairs competing for a concept are ordered by the smaller combined
    count-mass to third parties (the more exclusive bond wins), then by
    name.  Remaining concepts then attach one at a time: a concept may join
    the cluster of its best non-seeded partner provided that partner has no
    stronger tie among its own cluster and the still unclustered concepts.
    Whatever is left stays a singleton.
    """
    names, neighbours = grid.concepts, grid.neighbours
    position = {name: i for i, name in enumerate(names)}
    best = {name: max(near.values(), default=0)
            for name, near in neighbours.items()}

    mutual = [
        (a, b)
        for i, a in enumerate(names)
        for b, count in neighbours[a].items()
        if position[b] > i and count == best[a] == best[b]
    ]
    mutual.sort(key=lambda pair: (
        -grid.count(*pair),
        grid.strength(pair[0]) + grid.strength(pair[1])
        - 2 * grid.count(*pair),
        tuple(sorted(pair))))

    clusters: list[list[str]] = []
    membership: dict[str, int] = {}
    seeded: set[str] = set()
    for a, b in mutual:
        if a in seeded or b in seeded:
            continue
        membership[a] = membership[b] = len(clusters)
        clusters.append([a, b])
        seeded.update((a, b))

    def gate(target: str) -> int:
        """Best count the target holds toward its own cluster or the
        unclustered concepts."""
        return max((
            count for other, count in neighbours[target].items()
            if other not in membership
            or membership[other] == membership.get(target)), default=0)

    while True:
        candidates: list[tuple[int, str, str]] = []
        for name in names:
            if name in membership:
                continue
            partners = [
                (other, count) for other, count in neighbours[name].items()
                if other not in seeded
            ]
            if not partners:
                continue
            top = max(count for _, count in partners)
            for other, count in partners:
                if count == top and count >= gate(other):
                    candidates.append((count, name, other))
        if not candidates:
            break
        count, name, other = min(
            candidates, key=lambda c: (-c[0], c[1], c[2]))
        if other in membership:
            membership[name] = membership[other]
            clusters[membership[other]].append(name)
        else:
            membership[name] = membership[other] = len(clusters)
            clusters.append([other, name])

    for name in names:
        if name not in membership:
            membership[name] = len(clusters)
            clusters.append([name])

    return Clustering(tuple(tuple(c) for c in clusters))


class EagerBuild(NamedTuple):
    hierarchy: Hierarchy
    trace: tuple[TraceEvent, ...]
    diagnostics: tuple[Diagnostic, ...]


def select_root(ensemble: FrequencyGrid) -> str:
    """The strongest concept anchors the hierarchy; ties break by name."""
    if not ensemble.concepts:
        raise ValueError("cannot select a root from an empty ensemble")
    neighbours = ensemble.neighbours
    return min(ensemble.concepts, key=lambda name: (
        -sum(neighbours.get(name, {}).values()), name))


class _Builder:
    def __init__(self, root: str):
        self.root = root
        self.nodes: list[str] = [root]
        self.edges: list[tuple[str, str]] = []
        self.edge_set: set[tuple[str, str]] = set()
        self.children: dict[str, list[str]] = {}
        self.depth = {root: 0}
        self.trace: list[TraceEvent] = []

    def add_node(self, name: str, depth: int, cite: str) -> None:
        self.nodes.append(name)
        self.depth[name] = depth
        self.trace.append(TraceEvent("node", cite, (name,)))

    def add_edge(self, parent: str, child: str, cite: str) -> None:
        if (parent, child) in self.edge_set:
            return
        if parent in reachable(self.children, [child]):
            return  # a link back toward the root would fold the DAG shut
        self.edges.append((parent, child))
        self.edge_set.add((parent, child))
        self.children.setdefault(parent, []).append(child)
        self.trace.append(TraceEvent("edge", cite, (parent, child)))

    def insert_path(self, path: tuple[str, ...], cite: str) -> bool:
        """Insert one derived path, nearest-the-root end first.

        Returns False when no concept of the path exists yet; such paths
        wait until another rule gives them an anchor.
        """
        if not any(name in self.depth for name in path):
            return False
        head = self.depth.get(path[0])
        tail = self.depth.get(path[-1])
        if tail is not None and (head is None or tail < head):
            path = tuple(reversed(path))
        for a, b in zip(path, path[1:]):
            a_known = a in self.depth
            b_known = b in self.depth
            if a_known and b_known:
                self.add_edge(a, b, cite)
            elif a_known:
                self.add_node(b, self.depth[a] + 1, cite)
                self.add_edge(a, b, cite)
            elif b_known:
                self.add_node(a, self.depth[b] + 1, cite)
                self.add_edge(b, a, cite)
            # both unknown: skip until the walk reaches known ground
        return True


def build_hierarchy(scene: Scene, ensemble: FrequencyGrid) -> EagerBuild:
    """Grow the hierarchy from the rule paths in scene order.

    Every rule first updates the ensemble weights; insertions follow, so
    each hierarchy link is preceded by the matching ensemble update.  Rules
    whose path shares no concept with the root component stay pending and
    are retried after each insertion; whatever never connects is reported.
    """
    root = select_root(ensemble)
    repeats = repeat_rules(scene)
    builder = _Builder(root)
    running: dict[frozenset[str], int] = {}
    pending: list[tuple[Rule, tuple[str, ...]]] = []

    def retry_pending() -> None:
        progress = True
        while progress and pending:
            progress = False
            for entry in list(pending):
                rule, path = entry
                if builder.insert_path(path, rule.cite):
                    pending.remove(entry)
                    progress = True

    for position, rule in enumerate(scene.rules):
        members = list(lhs_concepts(rule))
        for a, b in combinations(members, 2):
            pair = frozenset((a, b))
            running[pair] = running.get(pair, 0) + 1
            builder.trace.append(TraceEvent(
                "ensemble", rule.cite, tuple(sorted(pair)), running[pair]))
        if not rule.inputs or position in repeats:
            continue
        for term in derive_result(rule.outputs, rule.inputs):
            path = _names(term)
            if not builder.insert_path(path, rule.cite):
                pending.append((rule, path))
        retry_pending()

    diagnostics: list[Diagnostic] = []
    if pending:
        stranded = sorted({rule.cite for rule, _ in pending})
        first = pending[0][0]
        diagnostics.append(error(
            f"rules share no concept with the hierarchy rooted at {root!r}: "
            + ", ".join(stranded), first.span))

    hierarchy = Hierarchy(root, tuple(builder.nodes), tuple(builder.edges))
    return EagerBuild(hierarchy, tuple(builder.trace), tuple(diagnostics))


def simple_cycles(adjacency) -> list[tuple[str, ...]]:
    """All simple cycles of a small digraph, each rooted at its smallest
    member; sorts a node's successors on every visit."""
    cycles: list[tuple[str, ...]] = []
    for start in sorted(adjacency):
        stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(adjacency.get(node, ())):
                if nxt == start and len(path) >= 2:
                    cycles.append(path)
                elif nxt > start and nxt not in path:
                    stack.append((nxt, path + (nxt,)))
    return cycles


def _pair_cycles(pair) -> list[Cycle]:
    adjacency: dict[str, set[str]] = {}
    outputs = {rule.outputs[0] for rule in pair}
    for rule in pair:
        names = list(rule.inputs[0].elements) + [rule.outputs[0]]
        for a, b in zip(names, names[1:]):
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set())
    cites = tuple(sorted(rule.cite for rule in pair))
    found = []
    for walk in simple_cycles(adjacency):
        anchors = [i for i, name in enumerate(walk) if name in outputs]
        if anchors:
            pivot = min(anchors, key=lambda i: walk[i])
            walk = walk[pivot:] + walk[:pivot]
        found.append(Cycle(walk, "reverse-pair", cites))
    return found


def _loop_cycles(scene: Scene, forest: OccurrenceForest) -> list[Cycle]:
    cycles: list[Cycle] = []
    seen: set[tuple[str, ...]] = set()
    associations = [
        (rule, rel) for rule in scene.rules for rel in rule.relations
        if rel.kind == "-"
    ]
    for loop_rule in scene.rules:
        if loop_rule.inputs:
            continue
        looped = loop_rule.outputs[0]
        anchor = forest.primary.get(looped)
        if anchor is None:
            continue
        below = _subtree_occurrences(anchor)
        for rule, rel in associations:
            a, b = rel.left, rel.right
            if looped in (a, b) or a not in below or b not in below:
                continue
            output_names = set(rule.outputs)
            if b in output_names and a not in output_names:
                a, b = b, a
            elif a not in output_names and b not in output_names:
                a, b = sorted((a, b))
            down = list(reversed(_climb(below[a], anchor)))
            up = _climb(below[b], anchor)
            walk = tuple([looped] + down + up)
            if walk in seen:
                continue
            seen.add(walk)
            cycles.append(Cycle(
                walk, "self-loop",
                tuple(sorted({loop_rule.cite, rule.cite}))))
    return cycles


def _subtree_occurrences(root: Occurrence) -> dict[str, Occurrence]:
    """First occurrence per concept strictly below ``root``, breadth first."""
    found: dict[str, Occurrence] = {}
    queue = deque(root.children)
    while queue:
        occ = queue.popleft()
        found.setdefault(occ.concept, occ)
        queue.extend(occ.children)
    return found


def _climb(occ: Occurrence, stop: Occurrence) -> list[str]:
    """Concepts from ``occ`` up its parents to, not including, ``stop``."""
    names: list[str] = []
    node: Occurrence | None = occ
    while node is not None and node is not stop:
        names.append(node.concept)
        node = node.parent
    return names


def _tree_base(forest: OccurrenceForest, occ: Occurrence,
               multi: set[str]) -> Occurrence:
    """Nearest strict ancestor that is the primary occurrence of a repeated
    concept; otherwise the occurrence's tree root."""
    node = occ.parent
    while node is not None:
        if node.concept in multi and forest.primary.get(node.concept) is node:
            return node
        if node.parent is None:
            return node
        node = node.parent
    return occ


def _source_path(forest: OccurrenceForest, occ: Occurrence,
                 multi: set[str]) -> tuple[str, ...]:
    base = _tree_base(forest, occ, multi)
    return tuple(reversed(_climb(occ, base) + [base.concept]))


def _target_path(forest: OccurrenceForest, occ: Occurrence,
                 multi: set[str]) -> tuple[str, ...]:
    return tuple(_climb(occ, _tree_base(forest, occ, multi))) or (occ.concept,)


def _rotation_key(walk: tuple[str, ...]) -> tuple[str, ...]:
    pivot = min(range(len(walk)), key=lambda i: walk[i:] + walk[:i])
    return walk[pivot:] + walk[:pivot]


def extract_cycles(scene: Scene, forest: OccurrenceForest) -> CycleReport:
    """Uni-directional entry links and the repeatable process cycles."""
    cycles: list[Cycle] = []
    seen: set[tuple[tuple[str, ...], str]] = set()
    rules = scene.rules
    for i, j in reverse_pairs(rules):
        for cycle in _pair_cycles((rules[i], rules[j])):
            key = (_rotation_key(cycle.concepts), cycle.kind)
            if key not in seen:
                seen.add(key)
                cycles.append(cycle)
    for cycle in _loop_cycles(scene, forest):
        key = (_rotation_key(cycle.concepts), cycle.kind)
        if key not in seen:
            seen.add(key)
            cycles.append(cycle)
    cycles.sort(key=lambda c: (c.kind, c.concepts))

    multi = set(forest.multi_occurrence_concepts())
    links: list[UniLink] = []
    for concept in sorted(multi):
        prim = forest.primary.get(concept)
        if prim is None:
            continue
        for occ in forest.occurrences[concept]:
            if occ is prim:
                continue
            links.append(UniLink(
                _source_path(forest, occ, multi),
                _target_path(forest, prim, multi)))
    cycle_concepts = sorted({name for cycle in cycles for name in cycle.concepts})
    for concept in cycle_concepts:
        for occ in forest.occurrences.get(concept, ()):
            links.append(UniLink(
                _source_path(forest, occ, multi), (concept,)))
    unique = sorted(set(links),
                    key=lambda l: (l.source_path[-1], l.source_path,
                                   l.target_path))
    return CycleReport(tuple(unique), tuple(cycles))
