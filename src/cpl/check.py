"""Rule validation against the derivation algebra and whole-scene consistency.

A rule is valid when its declared results match the derived ones and any
numeric amounts are conserved.  A scene is consistent when no rule breaks a
relation declared by another rule: no reversed sub-concept pairs, no pair
that is both nested and associated, and no cycles in the transitive
sub-concept or containment relations.  Only ``ast`` and ``graph`` are read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .ast import (
    ASSOCIATION,
    SUB_CONCEPT,
    Amount,
    Chain,
    Diagnostic,
    Rule,
    Scene,
    derive_result,
    error,
    split_result,
)
from .graph import strongly_connected


class Contradiction(NamedTuple):
    """A structured consistency violation; rendered into a Diagnostic."""

    kind: str  # "reversed-sub", "sub-vs-assoc", "sub-cycle", "containment-cycle"
    concepts: tuple[str, ...]
    rules: tuple[str, ...]
    message: str


def _matches_derivation(rule: Rule) -> bool:
    """Whether the declared terms are, as a multiset, the terms of every
    chain, each chain giving its inverted term or, when it carries an
    amount, the split form.

    Equal chains give equal terms, so only how many of them split matters.
    A chain's inverted term for the first output, three concepts or more
    since a chain has two or more, comes only from the chains equal to it
    and from the split remainder of the chain, one concept longer, that
    spells it.  So, taking the distinct chains longest first, the declared
    count of that term fixes how many of the equal chains split.
    """
    declared = sorted(term.concepts for term in rule.declared_results)
    if sorted(derive_result(rule.outputs, rule.inputs)) == declared:
        return True  # every chain inverted
    chains: dict[tuple[str, ...], list] = {}  # [chain, count, with amount]
    for chain in rule.inputs:
        tally = chains.setdefault(chain.elements, [chain, 0, 0])
        tally[1] += 1
        tally[2] += chain.quantity is not None
    # An inverted chain gives that term once per copy of the first output.
    share = rule.outputs.count(rule.outputs[0])
    splits: dict[tuple[str, ...], int] = {}
    expected: list[tuple[str, ...]] = []
    for elements in sorted(chains, key=len, reverse=True):
        chain, count, with_amount = chains[elements]
        inverted = derive_result(rule.outputs, [chain])
        first = inverted[0]
        written = bisect_right(declared, first) - bisect_left(declared, first)
        kept, rest = divmod(written - splits.get(first, 0), share)
        split = splits[elements] = count - kept
        if rest or not 0 <= split <= with_amount:
            return False
        expected += inverted * kept + split_result(rule.outputs, chain) * split
    return sorted(expected) == declared


def _split_amounts(rule: Rule) -> list[tuple[Chain, Amount | None,
                                              Amount | None]]:
    """Each chain that carries an amount, with the split amounts the rule's
    result terms write for it: taken is the last amount of the first
    ``O.F`` term, remainder that of the first term equal to the chain.
    Terms with no last amount are passed over, and a term read as taken is
    not read as the remainder.  The terms are indexed once per rule, so a
    rule of many chains is read in linear time."""
    chains = [chain for chain in rule.inputs if chain.quantity is not None]
    if not chains:
        return []
    outputs = set(rule.outputs)
    last = [term.qtys[-1] for term in rule.declared_results]
    taken_at: dict[str, int] = {}  # effector F -> its first O.F term
    equal: dict[tuple[str, ...], list[int]] = {}  # concepts -> first two
    for i, term in enumerate(rule.declared_results):
        if last[i] is None:
            continue
        names = term.concepts
        if len(names) == 2 and names[0] in outputs:
            taken_at.setdefault(names[1], i)
        first = equal.setdefault(names, [])
        if len(first) < 2:
            first.append(i)
    split = []
    for chain in chains:
        at = taken_at.get(chain.effector)
        rest = [i for i in equal.get(chain.elements, ()) if i != at]
        split.append((chain, None if at is None else last[at],
                      last[rest[0]] if rest else None))
    return split


def _check_quantity(rule: Rule, chain: Chain, taken: Amount | None,
                    remainder: Amount | None) -> list[Diagnostic]:
    """Numeric conservation of the chain's total over its split amounts."""
    qty, cite = chain.quantity, rule.cite
    total = qty.total.value()
    taken_value = taken.value() if taken else None
    if taken_value is not None and taken_value < 0:
        return [error(f"quantity taken {taken.render()} is negative ({cite})",
                      qty.span)]
    if total is None or taken_value is None:
        return []
    if taken_value > total:
        return [error(f"quantity taken {taken.render()} exceeds total "
                      f"{qty.total.render()} ({cite})", qty.span)]
    left = remainder.value() if remainder else None
    if left is not None and taken_value + left != total:
        return [error(f"quantity does not balance: taken {taken.render()} "
                      f"plus remainder {remainder.render()} is not total "
                      f"{qty.total.render()} ({cite})", qty.span)]
    return []


def validate_rule(rule: Rule) -> list[Diagnostic]:
    """Check one rule: declared results must equal the derivation (as
    multisets of terms) and numeric amounts must be conserved."""
    diagnostics: list[Diagnostic] = []
    if not _matches_derivation(rule):
        expected = " ^ ".join(
            ".".join(t) for t in derive_result(rule.outputs, rule.inputs))
        diagnostics.append(error(
            f"results of {rule.cite} do not match the derivation; "
            f"expected {expected}", rule.span))
    for chain, taken, remainder in _split_amounts(rule):
        diagnostics.extend(_check_quantity(rule, chain, taken, remainder))
    return diagnostics


def _cites(rules: list[Rule]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for rule in rules:
        seen.setdefault(rule.cite)
    return tuple(seen)


def scene_contradictions(scene: Scene) -> list[Contradiction]:
    """Cross-rule violations as structured records, deterministically ordered."""
    # Each relation with the rules declaring it; duplicates are legal.
    sub_edges: dict[tuple[str, str], list[Rule]] = {}
    assoc_edges: dict[tuple[str, str], list[Rule]] = {}  # sorted pair
    contained_edges: dict[tuple[str, str], list[Rule]] = {}
    for rule in scene.rules:
        for rel in rule.relations:
            left, right = rel.left, rel.right
            if rel.kind == ASSOCIATION:
                pair = (left, right) if left < right else (right, left)
                assoc_edges.setdefault(pair, []).append(rule)
                continue
            edges = sub_edges if rel.kind == SUB_CONCEPT else contained_edges
            edges.setdefault((left, right), []).append(rule)
    found: list[Contradiction] = []

    for (child, parent), rules in sorted(sub_edges.items()):
        reverse = sub_edges.get((parent, child))
        if reverse and child < parent:
            cites = _cites(rules + reverse)
            found.append(Contradiction(
                "reversed-sub", (child, parent), cites,
                f"'{child} < {parent}' ({_cites(rules)[0]}) contradicts "
                f"'{parent} < {child}' ({_cites(reverse)[0]})"))

    for (a, b), assoc_rules in sorted(assoc_edges.items()):
        for child, parent in ((a, b), (b, a)):
            sub_rules = sub_edges.get((child, parent))
            if sub_rules:
                cites = _cites(sub_rules + assoc_rules)
                found.append(Contradiction(
                    "sub-vs-assoc", (child, parent), cites,
                    f"'{child} < {parent}' ({_cites(sub_rules)[0]}) contradicts "
                    f"the association '{a} - {b}' ({_cites(assoc_rules)[0]})"))

    # Sub-concept two-cycles are already reported as reversed-sub.
    for kind, edges, smallest, prefix in (
            ("sub-cycle", sub_edges, 3, "sub-concept relations form"),
            ("containment-cycle", contained_edges, 2,
             "containment forms")):
        adjacency: dict[str, list[str]] = {}
        for child, parent in edges:
            adjacency.setdefault(child, []).append(parent)
        # One pass over the edges finds those inside each cycle component.
        components = [c for c in strongly_connected(adjacency)
                      if len(c) >= smallest]
        member_of = {name: index for index, component in enumerate(components)
                     for name in component}
        inside: list[list[tuple[str, str]]] = [[] for _ in components]
        for edge in edges:
            index = member_of.get(edge[0])
            if index is not None and member_of.get(edge[1]) == index:
                inside[index].append(edge)
        for component, cycle_edges in zip(components, inside):
            cites = _cites([rule for edge in sorted(cycle_edges)
                            for rule in edges[edge]])
            found.append(Contradiction(
                kind, tuple(component), cites,
                f"{prefix} a cycle through "
                f"{', '.join(component)} ({', '.join(cites)})"))

    found.sort(key=lambda c: (c.kind, c.concepts))
    return found


def check_scene(scene: Scene) -> list[Diagnostic]:
    """Report every cross-rule contradiction; empty means consistent.

    Expects individually valid rules (see validate_rule).  The result is
    insensitive to rule order up to the rule labels cited.
    """
    # The last offending rule in scene order positions each message.
    last = {rule.cite: i for i, rule in enumerate(scene.rules)}
    return [error(found.message,
                  scene.rules[max(map(last.get, found.rules))].span)
            for found in scene_contradictions(scene)]


def check_all(scene: Scene) -> list[Diagnostic]:
    """Rule-level validation followed by scene consistency."""
    diagnostics: list[Diagnostic] = []
    for rule in scene.rules:
        diagnostics += validate_rule(rule)
    return diagnostics + check_scene(scene)
