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
association, and climb back up.  The uni-links come one concept at a
time, so ``cpl cycles`` streams them as ``cpl grid`` streams its rows.
The forest reads the scene's relations itself and depends only on
``ast`` and ``graph``.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import NamedTuple

from .ast import (ASSOCIATION, CONTAINED_IN, SUB_CONCEPT, Relation, Rule,
                  Scene, derive_result, reverse_pairs)
# Unused here, but perfbench/tracing.py counts calls by rebinding this name.
from .ast import is_reverse_pair  # noqa: F401
from .graph import reachable, simple_cycles


class Occurrence:
    """One placement of a concept; at most one parent, children in
    placement order.  Only a primary occurrence takes children, so every
    other one shares the empty tuple.  Occurrences compare by identity."""

    __slots__ = ("concept", "parent", "origin", "contained", "children")

    def __init__(self, concept: str, parent: Occurrence | None, origin: str,
                 contained: bool = False, primary: bool = True) -> None:
        self.concept = concept
        self.parent = parent
        self.origin = origin
        self.contained = contained
        self.children: list[Occurrence] | tuple[()] = [] if primary else ()


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
            if rel.kind == SUB_CONCEPT:
                sub.add((left, right))
                add(right, left, False, rule.cite)
            elif rel.kind == CONTAINED_IN:
                add(right, left, True, rule.cite)
            else:
                assoc.update(((left, right), (right, left)))
    for rule in scene.rules:
        placed = {
            rel.left for rel in rule.relations if rel.kind == SUB_CONCEPT
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
    for name in sorted(set(used) - reached):
        if name in reached:
            continue
        if root_name is not None:
            merged[root_name, name] = "root"
            free[root_name, name] = len(free)
            children.setdefault(root_name, []).append(name)
        else:
            root_names.append(name)
        reachable(children, [name], reached)

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

    def placement(key: tuple[str, str]) -> int:
        parent, i = key[0], position[key]
        return (rounds[parent] + (i < at[parent])) * len(merged) + i

    for key in sorted(merged, key=placement):
        parent, child = key
        is_primary = at.get(child) == position[key]
        occ = Occurrence(child, primary[parent], merged[key], key not in free,
                         is_primary)
        primary[parent].children.append(occ)
        occurrences.setdefault(child, []).append(occ)
        if is_primary:
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


class UniLink(NamedTuple):
    """Entry path into a process: a tree descent connected across to
    another occurrence of the same concept, or to the concept's role in a
    cycle.  The concept is ``source_path[-1]``."""

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


def _rule_edges(rule: Rule):
    """A rule's directed concept adjacencies: each derived result path
    walked backwards, source -> effector -> output; a self-loop rule has
    none."""
    for path in derive_result(rule.outputs, rule.inputs):
        yield from zip(path[1:], path)


def _pair_cycles(pair: tuple[Rule, Rule], found: dict[tuple, Cycle]) -> None:
    """Add each new cycle under its walk, rooted at its least name and so
    its least rotation.  A simple cycle names each concept once."""
    adjacency: dict[str, set[str]] = {}
    outputs = {rule.outputs[0] for rule in pair}
    for rule in pair:
        for a, b in _rule_edges(rule):
            adjacency.setdefault(a, set()).add(b)
    cites = tuple(sorted(rule.cite for rule in pair))
    for walk in simple_cycles(adjacency):
        if walk not in found:
            pivot = walk.index(min(outputs.intersection(walk), default=walk[0]))
            found[walk] = Cycle(walk[pivot:] + walk[:pivot], "reverse-pair",
                                cites)


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
        if not rule.inputs:
            loops.setdefault(rule.outputs[0], rule)
        for rel in rule.relations:
            if rel.kind == ASSOCIATION:
                by_left.setdefault(rel.left, []).append(len(associations))
                associations.append((rule, rel))
    # The occurrences strictly above an association's left end, marked
    # upward until an already marked one; no walk starts anywhere else.
    above: set[Occurrence] = set()
    for name in by_left:
        for occ in forest.occurrences[name]:
            node = occ.parent
            while node is not None and node not in above:
                above.add(node)
                node = node.parent
    for looped, loop_rule in loops.items():
        anchor = forest.primary[looped]
        if anchor not in above:
            continue
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
    rules, pairs, loops = scene.rules, {}, {}
    for i, j in reverse_pairs(rules):
        _pair_cycles((rules[i], rules[j]), pairs)
    for cycle in _loop_cycles(scene, forest):
        loops.setdefault(_rotation_key(cycle.concepts), cycle)
    walk = attrgetter("concepts")
    return (*sorted(pairs.values(), key=walk),
            *sorted(loops.values(), key=walk))


def uni_links(forest: OccurrenceForest, cycles: tuple[Cycle, ...]):
    """The uni-directional entry links in sorted order, built and freed one
    concept at a time: each other occurrence of a repeated concept to its
    primary, and each occurrence of a cycle concept to its role."""
    multi = set(forest.multi_occurrence_concepts())
    in_cycle = {name for cycle in cycles for name in cycle.concepts}
    for concept in sorted(multi | in_cycle):
        occs = forest.occurrences.get(concept, ())
        source = {occ: tuple(reversed(_base_path(forest, occ, multi)))
                  for occ in occs}
        role = (concept,)
        links = {UniLink(source[occ], role)
                 for occ in occs if concept in in_cycle}
        if concept in multi:
            prim = forest.primary[concept]
            # The primary's own climb, short of its base.
            target = source[prim][:0:-1] or role
            links.update(UniLink(source[occ], target)
                         for occ in occs if occ is not prim)
        yield from sorted(links)


def extract_cycles(scene: Scene, forest: OccurrenceForest) -> CycleReport:
    """Uni-directional entry links and the cycles of ``find_cycles``."""
    cycles = find_cycles(scene, forest)
    return CycleReport(tuple(uni_links(forest, cycles)), cycles)


def _rotation_key(walk: tuple[str, ...]) -> tuple[str, ...]:
    """The least rotation; it starts at the least name."""
    first = min(walk)
    return min(walk[i:] + walk[:i]
               for i, name in enumerate(walk) if name == first)


def forest_to_dot(forest: OccurrenceForest) -> str:
    """One subgraph per tree; each later occurrence of a repeated concept
    is joined to its first occurrence by a dashed line."""
    ids: dict[Occurrence, str] = {}
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
                lines.append(f"    {parent_id} -> {ids[occ]}{style};")
                continue
            ids[occ] = node_id = f"n{len(ids)}"
            lines.append(f'    {node_id} [label="{occ.concept}"];')
            for child in reversed(occ.children):
                stack.append((child, node_id))
                stack.append((child, None))
        lines.append("  }")
    for concept in forest.multi_occurrence_concepts():
        first, *later = forest.occurrences[concept]
        lines.extend(f"  {ids[first]} -> {ids[occ]} [style=dashed, dir=none];"
                     for occ in later)
    lines.append("}")
    return "\n".join(lines) + "\n"


_PALETTE = ("red", "blue", "darkgreen", "orange", "purple", "brown")


def report_to_dot(scene: Scene, cycles: tuple[Cycle, ...]) -> str:
    """Process adjacencies in gray, labeled with the rules that induce
    them, each cycle's edges colored and each self-loop rule looping on
    its output."""
    edges: dict[tuple[str, str], dict[str, None]] = {}
    loops: dict[str, dict[str, None]] = {}
    for rule in scene.rules:
        if not rule.inputs:
            loops.setdefault(rule.outputs[0], {})[rule.cite] = None
        for edge in _rule_edges(rule):
            edges.setdefault(edge, {})[rule.cite] = None
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
