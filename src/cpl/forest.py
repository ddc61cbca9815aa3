"""Concept occurrence trees and the process links derived from them.

The forest nests every used concept by its declared relations: sub-concept
and containment relations place a child under a parent, a rule's output is
attached under its chain source when the effector is nested in that source
and no association keeps the two apart, and anything still unplaced hangs
off the scene root.  A concept may occur once per distinct parent, but only
its primary occurrence (the first non-containment placement) carries
children; containment marks an initial position, so those occurrences stay
leaves.

Tracing repeated concepts across the trees yields uni-directional entry
links, and the rule set yields closed process cycles: a reverse rule pair
makes the walk between its output and source repeatable, and a self-loop
rule lets a walk descend through the looping concept's subtree, cross an
association, and climb back up.  The forest reads the scene's relations
itself and depends only on ``ast``, ``graph`` and ``jsontext``.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, combinations
from typing import NamedTuple

from .ast import Relation, RelationKind, Rule, Scene, reverse_pairs
# Unused here, but perfbench/tracing.py counts calls by rebinding this name.
from .ast import is_reverse_pair  # noqa: F401
from .graph import reachable, simple_cycles
from .jsontext import dumps


class Occurrence:
    """One placement of a concept; at most one parent, children in
    placement order.  Occurrences compare by identity."""

    __slots__ = ("concept", "parent", "origin", "contained", "children")

    def __init__(self, concept: str, parent: Occurrence | None, origin: str,
                 contained: bool = False) -> None:
        self.concept = concept
        self.parent = parent
        self.origin = origin
        self.contained = contained
        self.children: list[Occurrence] = []


class OccurrenceForest(NamedTuple):
    roots: list[Occurrence]
    occurrences: dict[str, list[Occurrence]]
    primary: dict[str, Occurrence]

    def multi_occurrence_concepts(self) -> tuple[str, ...]:
        return tuple(sorted(
            name for name, occs in self.occurrences.items() if len(occs) > 1))


def _collect_edges(scene: Scene) -> tuple[dict[tuple[str, str], str],
                                         dict[tuple[str, str], int]]:
    """The origin of each parent/child pair's first mention, in order of
    first mention, and the pairs numbered in order of their first
    non-containment mention; a pair without a number is a containment."""
    merged: dict[tuple[str, str], str] = {}
    free: dict[tuple[str, str], int] = {}
    sub: set[tuple[str, str]] = set()  # (child, parent)
    assoc: set[tuple[str, str]] = set()  # both orders

    def add(parent: str, child: str, contained: bool, origin: str) -> None:
        key = (parent, child)
        merged.setdefault(key, origin)
        if not contained:
            free.setdefault(key, len(free))

    for rule in scene.rules:
        for rel in rule.relations:
            left, right = rel.left, rel.right
            if rel.kind is RelationKind.SUB_CONCEPT:
                sub.add((left, right))
                add(right, left, False, rule.cite)
            elif rel.kind is RelationKind.CONTAINED_IN:
                add(right, left, True, rule.cite)
            else:
                assoc.update(((left, right), (right, left)))
    for rule in scene.rules:
        if rule.self_loop:
            continue
        placed = {
            rel.left for rel in rule.relations
            if rel.kind is RelationKind.SUB_CONCEPT
        }
        for output in rule.outputs:
            if output in placed:
                continue
            for chain in rule.inputs:
                source, effector = chain.source, chain.effector
                if ((effector, source) not in sub
                        or (output, source) in assoc):
                    continue
                if output != source:
                    add(source, output, False, rule.cite)
    return merged, free


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

    merged, free = _collect_edges(scene)

    used = list(scene.used_names())
    root_name = scene.root
    if root_name is not None and root_name not in used:
        used.insert(0, root_name)

    # Each root edge is a new pair, numbered free.
    with_parent = {child for _, child in merged}
    if root_name is not None:
        for name in used:
            if name != root_name and name not in with_parent:
                merged[root_name, name] = "root"
                free[root_name, name] = len(free)
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
            merged[root_name, name] = "root"
            free[root_name, name] = len(free)
            children.setdefault(root_name, []).append(name)
        else:
            root_names.append(name)
        reached |= reachable(children, [name])

    # Layer concepts outward from the roots, one frontier per round; a
    # concept's primary placement is its first non-containment edge from
    # the frontier, keeping the primary parent chain acyclic by
    # construction.  ``at`` is the position of a concept's primary edge and
    # ``rounds`` the placement round that realizes it: an edge is placed in
    # its parent's round if it comes after the parent's primary edge, else
    # one round later, and each round places edges in merged order.  Free
    # edges rank by number, ahead of containments in merged order.
    position = {key: i for i, key in enumerate(merged)}
    rounds = dict.fromkeys(root_names, 0)
    at = dict.fromkeys(root_names, -1)
    frontier = root_names
    while frontier:
        best: dict[str, tuple[int, str]] = {}
        for parent in frontier:
            for child in children.get(parent, ()):
                if child in rounds:
                    continue
                key = (parent, child)
                rank = free.get(key, len(free) + position[key])
                if child not in best or rank < best[child][0]:
                    best[child] = (rank, parent)
        for child, (_, parent) in best.items():
            i = position[parent, child]
            rounds[child] = rounds[parent] + (i < at[parent])
            at[child] = i
        frontier = list(best)

    primary: dict[str, Occurrence] = {}
    occurrences: dict[str, list[Occurrence]] = {n: [] for n in used}
    roots: list[Occurrence] = []
    for name in root_names:
        occ = Occurrence(name, None, "root")
        primary[name] = occ
        occurrences[name].append(occ)
        roots.append(occ)

    def placement(item: tuple[int, tuple[str, str]]) -> tuple[int, int]:
        i, (parent, _) = item
        return rounds[parent] + (i < at[parent]), i

    for i, key in sorted(enumerate(merged), key=placement):
        parent, child = key
        occ = Occurrence(child, primary[parent], merged[key], key not in free)
        primary[parent].children.append(occ)
        occurrences.setdefault(child, []).append(occ)
        if at.get(child) == i:
            primary[child] = occ

    return OccurrenceForest(roots, occurrences, primary)


def nested_notation(forest: OccurrenceForest, sort_children: bool = False) -> str:
    """Parenthesized view of the forest; children follow placement order, or
    name order when sorted output is requested."""

    parts: list[str] = []
    stack: list[Occurrence | str] = []

    def push(occs: list[Occurrence]) -> None:
        """Stack siblings and their separators so they pop in order."""
        if sort_children:
            occs = sorted(occs, key=lambda occ: occ.concept)
        for index, occ in enumerate(reversed(occs)):
            if index:
                stack.append(", ")
            stack.append(occ)

    push(forest.roots)
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif not item.children:
            parts.append(item.concept)
        else:
            parts.append(f"{item.concept}(")
            stack.append(")")
            push(item.children)
    return "".join(parts)


class CrossLink(NamedTuple):
    """Two occurrences of one concept under different parents."""

    concept: str
    parents: tuple[str | None, str | None]


def cross_links(forest: OccurrenceForest) -> tuple[CrossLink, ...]:
    links: list[CrossLink] = []
    for concept in sorted(forest.occurrences):
        occs = forest.occurrences[concept]
        if len(occs) < 2:
            continue
        for a, b in combinations(occs, 2):
            parents = tuple(sorted(
                (o.parent.concept if o.parent else None for o in (a, b)),
                key=lambda p: (p is not None, p)))
            links.append(CrossLink(concept, parents))  # type: ignore[arg-type]
    return tuple(links)


class UniLink(NamedTuple):
    """Entry path into a process: a tree descent connected across to
    another occurrence of the same concept, or to the concept's role in a
    cycle."""

    concept: str
    source_path: tuple[str, ...]
    target_path: tuple[str, ...]

    def render(self) -> str:
        return f"{', '.join(self.source_path)} -> {', '.join(self.target_path)}"


class Cycle(NamedTuple):
    """A closed concept walk; the starting concept is not repeated."""

    concepts: tuple[str, ...]
    kind: str  # "reverse-pair" or "self-loop"
    rules: tuple[str, ...]

    def render(self) -> str:
        walk = " -> ".join(self.concepts + (self.concepts[0],))
        return f"{walk}  [{', '.join(self.rules)}]"


class CycleReport(NamedTuple):
    uni_links: tuple[UniLink, ...]
    cycles: tuple[Cycle, ...]


def process_edges(scene: Scene) -> tuple[dict[tuple[str, str], tuple[str, ...]],
                                         dict[str, tuple[str, ...]]]:
    """Directed concept adjacencies oriented source -> effector -> output,
    labeled with the rules that induce them, plus the self-loop owners."""
    edges: dict[tuple[str, str], list[str]] = {}
    loops: dict[str, list[str]] = {}
    for rule in scene.rules:
        if rule.self_loop:
            loops.setdefault(rule.outputs[0], []).append(rule.cite)
            continue
        for chain in rule.inputs:
            names = chain.elements
            for a, b in zip(names, names[1:]):
                edges.setdefault((a, b), []).append(rule.cite)
            for output in rule.outputs:
                edges.setdefault((names[-1], output), []).append(rule.cite)
    return (
        {edge: tuple(dict.fromkeys(cites)) for edge, cites in edges.items()},
        {name: tuple(dict.fromkeys(cites)) for name, cites in loops.items()},
    )


def _pair_cycles(pair: tuple[Rule, Rule]) -> list[Cycle]:
    adjacency: dict[str, set[str]] = {}
    outputs = {rule.outputs[0] for rule in pair}
    for rule in pair:
        names = rule.inputs[0].elements + rule.outputs
        for a, b in zip(names, names[1:]):
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set())
    cites = tuple(sorted(rule.cite for rule in pair))
    found = []
    for walk in simple_cycles(adjacency):
        anchors = [name for name in walk if name in outputs]
        if anchors:
            # A simple cycle names each concept once.
            pivot = walk.index(min(anchors))
            walk = walk[pivot:] + walk[:pivot]
        found.append(Cycle(walk, "reverse-pair", cites))
    return found


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


def _loop_cycles(scene: Scene, forest: OccurrenceForest) -> list[Cycle]:
    """Per looped concept, under its first self-loop rule: the walk down to
    each association with both ends below the concept and back up, taking
    the associations in scene order.  A later self-loop rule on the same
    concept gives the same walks."""
    cycles: list[Cycle] = []
    associations: list[tuple[Rule, Relation]] = []
    by_left: dict[str, list[int]] = {}
    loops: dict[str, Rule] = {}
    for rule in scene.rules:
        if rule.self_loop:
            loops.setdefault(rule.outputs[0], rule)
        for rel in rule.relations:
            if rel.kind is RelationKind.ASSOCIATION:
                by_left.setdefault(rel.left, []).append(len(associations))
                associations.append((rule, rel))
    for looped, loop_rule in loops.items():
        anchor = forest.primary[looped]
        below = _subtree_occurrences(anchor)
        for index in sorted(index for name in below
                            for index in by_left.get(name, ())):
            rule, rel = associations[index]
            a, b = rel.left, rel.right
            if looped in (a, b) or b not in below:
                continue
            if b in rule.outputs and a not in rule.outputs:
                a, b = b, a
            elif a not in rule.outputs and b not in rule.outputs:
                a, b = sorted((a, b))
            down = list(reversed(_climb(below[a], anchor)))
            up = _climb(below[b], anchor)
            walk = tuple([looped] + down + up)
            cycles.append(Cycle(
                walk, "self-loop",
                tuple(sorted({loop_rule.cite, rule.cite}))))
    return cycles


def _base_path(forest: OccurrenceForest, occ: Occurrence,
               multi: set[str]) -> list[str]:
    """Concepts from ``occ`` up to its base: the nearest strict ancestor
    that is the primary occurrence of a repeated concept, otherwise the tree
    root, which at a root is ``occ`` itself."""
    names = [occ.concept]
    node = occ.parent
    while node is not None:
        names.append(node.concept)
        if node.parent is None or (node.concept in multi
                                   and forest.primary.get(node.concept) is node):
            break
        node = node.parent
    return names


def find_cycles(scene: Scene, forest: OccurrenceForest) -> tuple[Cycle, ...]:
    """The repeatable process cycles, sorted by kind and then by walk.

    Cycles are admitted only when a reverse rule pair or a self-loop rule
    enables them; the raw rule adjacencies alone do not make a walk a
    process cycle.

    The set of cycles, each taken up to rotation with its kind, does not
    depend on rule order.  The printed rotation and the cited rules do:
    when several reverse pairs, or several rules under a self-loop, give
    the same cycle, the first in scene order is the one reported.
    """
    rules = scene.rules
    first: dict[tuple[tuple[str, ...], str], Cycle] = {}
    pair_cycles = (cycle for i, j in reverse_pairs(rules)
                   for cycle in _pair_cycles((rules[i], rules[j])))
    for cycle in chain(pair_cycles, _loop_cycles(scene, forest)):
        first.setdefault((_rotation_key(cycle.concepts), cycle.kind), cycle)
    return tuple(sorted(first.values(), key=lambda c: (c.kind, c.concepts)))


def extract_cycles(scene: Scene, forest: OccurrenceForest) -> CycleReport:
    """Uni-directional entry links and the cycles of ``find_cycles``."""
    cycles = find_cycles(scene, forest)
    multi = set(forest.multi_occurrence_concepts())
    cycle_concepts = sorted({name for cycle in cycles for name in cycle.concepts})
    source = {occ: tuple(reversed(_base_path(forest, occ, multi)))
              for concept in multi.union(cycle_concepts)
              for occ in forest.occurrences.get(concept, ())}
    links: list[UniLink] = []
    for concept in sorted(multi):
        prim = forest.primary[concept]
        # The primary's own climb, short of its base.
        target = source[prim][:0:-1] or (concept,)
        for occ in forest.occurrences[concept]:
            if occ is not prim:
                links.append(UniLink(concept, source[occ], target))
    for concept in cycle_concepts:
        for occ in forest.occurrences.get(concept, ()):
            links.append(UniLink(concept, source[occ], (concept,)))
    return CycleReport(tuple(sorted(set(links))), cycles)


def _rotation_key(walk: tuple[str, ...]) -> tuple[str, ...]:
    """The least rotation; it starts at the least name."""
    first = min(walk)
    return min(walk[i:] + walk[:i]
               for i, name in enumerate(walk) if name == first)


def forest_to_dot(forest: OccurrenceForest) -> str:
    """One subgraph per tree; same-concept cross links drawn dashed."""
    ids: dict[int, str] = {}
    lines = ["digraph concept_forest {", "  node [shape=box];"]
    for index, root in enumerate(forest.roots):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f'    label="{root.concept}";')
        # (occurrence, None) numbers and labels the occurrence; (child,
        # parent id) draws the link once the child's subtree is written.
        stack: list[tuple[Occurrence, str | None]] = [(root, None)]
        while stack:
            occ, parent_id = stack.pop()
            if parent_id is not None:
                style = " [style=dotted]" if occ.contained else ""
                lines.append(f"    {parent_id} -> {ids[id(occ)]}{style};")
                continue
            ids[id(occ)] = node_id = f"n{len(ids)}"
            lines.append(f'    {node_id} [label="{occ.concept}"];')
            for child in reversed(occ.children):
                stack.append((child, node_id))
                stack.append((child, None))
        lines.append("  }")
    for concept in forest.multi_occurrence_concepts():
        occs = forest.occurrences[concept]
        for a, b in combinations(occs, 2):
            lines.append(
                f"  {ids[id(a)]} -> {ids[id(b)]} [style=dashed, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_PALETTE = ("red", "blue", "darkgreen", "orange", "purple", "brown")


def report_to_dot(scene: Scene, cycles: tuple[Cycle, ...]) -> str:
    """Process adjacencies in gray with each cycle's edges colored."""
    edges, loops = process_edges(scene)
    lines = ["digraph process_cycles {", "  node [shape=ellipse];"]
    colored: dict[tuple[str, str], str] = {}
    for index, cycle in enumerate(cycles):
        color = _PALETTE[index % len(_PALETTE)]
        walk = cycle.concepts + (cycle.concepts[0],)
        for a, b in zip(walk, walk[1:]):
            colored.setdefault((a, b), color)
    for (a, b), cites in sorted(edges.items()):
        color = colored.get((a, b))
        attrs = f'color={color}, penwidth=2' if color else "color=gray"
        lines.append(f'  "{a}" -> "{b}" [{attrs}, label="{",".join(cites)}"];')
    for (a, b), color in sorted(colored.items()):
        if (a, b) not in edges:
            lines.append(
                f'  "{a}" -> "{b}" [color={color}, penwidth=2, style=dashed];')
    for name, cites in sorted(loops.items()):
        lines.append(f'  "{name}" -> "{name}" [label="{",".join(cites)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def forest_to_json(forest: OccurrenceForest, report: CycleReport | None = None) -> str:
    roots: list[dict] = []
    # Each occurrence with the list its payload joins; children are pushed
    # in reverse so that every list fills in placement order.
    stack = [(root, roots) for root in reversed(forest.roots)]
    while stack:
        occ, siblings = stack.pop()
        node: dict = {"concept": occ.concept, "origin": occ.origin}
        if occ.contained:
            node["contained"] = True
        siblings.append(node)
        if occ.children:
            node["children"] = children = []
            stack.extend((child, children) for child in reversed(occ.children))

    payload = {
        "format_version": 1,
        "roots": roots,
        "cross_links": [
            {"concept": link.concept, "parents": list(link.parents)}
            for link in cross_links(forest)
        ],
    }
    if report is not None:
        payload["uni_links"] = [
            {"concept": link.concept,
             "source_path": list(link.source_path),
             "target_path": list(link.target_path)}
            for link in report.uni_links
        ]
        payload["cycles"] = [
            {"concepts": list(cycle.concepts), "kind": cycle.kind,
             "rules": list(cycle.rules)}
            for cycle in report.cycles
        ]
    return dumps(payload) + "\n"
