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
association, and climb back up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from .ast import RelationKind, Rule, Scene, is_reverse_pair
from .check import RelationStore
from .graph import reachable, simple_cycles


@dataclass(eq=False)
class Occurrence:
    """One placement of a concept; at most one parent, children in
    placement order."""

    concept: str
    parent: "Occurrence | None"
    origin: str
    contained: bool = False
    children: list["Occurrence"] = field(default_factory=list)


@dataclass
class OccurrenceForest:
    roots: list[Occurrence]
    occurrences: dict[str, list[Occurrence]]
    primary: dict[str, Occurrence]

    def multi_occurrence_concepts(self) -> tuple[str, ...]:
        return tuple(sorted(
            name for name, occs in self.occurrences.items() if len(occs) > 1))


@dataclass(frozen=True)
class _Edge:
    parent: str
    child: str
    contained: bool
    origin: str


def _collect_edges(scene: Scene, store: RelationStore) -> list[_Edge]:
    edges: list[_Edge] = []
    for rule in scene.rules:
        for rel in rule.relations:
            if rel.kind is RelationKind.SUB_CONCEPT:
                edges.append(_Edge(rel.right.name, rel.left.name, False, rule.cite))
            elif rel.kind is RelationKind.CONTAINED_IN:
                edges.append(_Edge(rel.right.name, rel.left.name, True, rule.cite))
    for rule in scene.rules:
        if rule.self_loop:
            continue
        placed = {
            rel.left.name for rel in rule.relations
            if rel.kind is RelationKind.SUB_CONCEPT
        }
        for output in rule.outputs:
            if output.name in placed:
                continue
            for chain in rule.inputs:
                source, effector = chain.source.name, chain.effector.name
                if not store.has_sub(effector, source):
                    continue
                if store.has_assoc(output.name, source):
                    continue
                if output.name != source:
                    edges.append(_Edge(source, output.name, False, rule.cite))
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

    store = RelationStore.from_scene(scene)
    raw = _collect_edges(scene, store)

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

    used = [c.name for c in scene.used_concepts()]
    root_name = scene.root.name if scene.root is not None else None
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


@dataclass(frozen=True)
class CrossLink:
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


@dataclass(frozen=True)
class UniLink:
    """Entry path into a process: a tree descent connected across to
    another occurrence of the same concept, or to the concept's role in a
    cycle."""

    concept: str
    source_path: tuple[str, ...]
    target_path: tuple[str, ...]

    def render(self) -> str:
        return f"{', '.join(self.source_path)} -> {', '.join(self.target_path)}"


@dataclass(frozen=True)
class Cycle:
    """A closed concept walk; the starting concept is not repeated."""

    concepts: tuple[str, ...]
    kind: str  # "reverse-pair" or "self-loop"
    rules: tuple[str, ...]

    def render(self) -> str:
        walk = " -> ".join(self.concepts + (self.concepts[0],))
        return f"{walk}  [{', '.join(self.rules)}]"


@dataclass(frozen=True)
class CycleReport:
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
            loops.setdefault(rule.outputs[0].name, []).append(rule.cite)
            continue
        for chain in rule.inputs:
            names = [c.name for c in chain.elements]
            for a, b in zip(names, names[1:]):
                edges.setdefault((a, b), []).append(rule.cite)
            for output in rule.outputs:
                edges.setdefault((names[-1], output.name), []).append(rule.cite)
    return (
        {edge: tuple(dict.fromkeys(cites)) for edge, cites in edges.items()},
        {name: tuple(dict.fromkeys(cites)) for name, cites in loops.items()},
    )


def reverse_pairs(scene: Scene) -> list[tuple[Rule, Rule]]:
    """Every (earlier, later) pair of rules that reverse each other, in
    scene order of the earlier rule, then of the later one.

    Rules are hashed by (output, source, chain tail); a rule's partners can
    only sit under the key with output and source swapped.
    """
    rules = scene.rules
    shaped: dict[int, tuple[str, str, tuple[str, ...]]] = {}
    buckets: dict[tuple[str, str, tuple[str, ...]], list[int]] = {}
    for index, rule in enumerate(rules):
        if len(rule.outputs) == 1 and len(rule.inputs) == 1:
            chain = rule.inputs[0]
            key = (rule.outputs[0].name, chain.source.name,
                   tuple(c.name for c in chain.elements[1:]))
            shaped[index] = key
            buckets.setdefault(key, []).append(index)
    pairs = []
    for i, (output, source, tail) in shaped.items():
        for j in buckets.get((source, output, tail), ()):
            if j > i and is_reverse_pair(rules[i], rules[j]):
                pairs.append((rules[i], rules[j]))
    return pairs


def _pair_cycles(pair: tuple[Rule, Rule]) -> list[Cycle]:
    adjacency: dict[str, set[str]] = {}
    outputs = {rule.outputs[0].name for rule in pair}
    for rule in pair:
        names = [c.name for c in rule.inputs[0].elements] + [rule.outputs[0].name]
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


def _subtree_occurrences(root: Occurrence) -> dict[str, Occurrence]:
    """First occurrence per concept strictly below ``root``, breadth first."""
    found: dict[str, Occurrence] = {}
    queue = list(root.children)
    while queue:
        occ = queue.pop(0)
        found.setdefault(occ.concept, occ)
        queue.extend(occ.children)
    return found


def _loop_cycles(scene: Scene, forest: OccurrenceForest) -> list[Cycle]:
    cycles: list[Cycle] = []
    seen: set[tuple[str, ...]] = set()
    for loop_rule in scene.rules:
        if not loop_rule.self_loop:
            continue
        looped = loop_rule.outputs[0].name
        anchor = forest.primary.get(looped)
        if anchor is None:
            continue
        below = _subtree_occurrences(anchor)

        def climb(occ: Occurrence) -> list[str]:
            names = []
            node: Occurrence | None = occ
            while node is not None and node is not anchor:
                names.append(node.concept)
                node = node.parent
            return names

        for rule in scene.rules:
            for rel in rule.relations:
                if rel.kind is not RelationKind.ASSOCIATION:
                    continue
                a, b = rel.left.name, rel.right.name
                if looped in (a, b) or a not in below or b not in below:
                    continue
                output_names = {o.name for o in rule.outputs}
                if b in output_names and a not in output_names:
                    a, b = b, a
                elif a not in output_names and b not in output_names:
                    a, b = sorted((a, b))
                down = list(reversed(climb(below[a])))
                up = climb(below[b])
                walk = tuple([looped] + down + up)
                if walk in seen:
                    continue
                seen.add(walk)
                cycles.append(Cycle(
                    walk, "self-loop",
                    tuple(sorted({loop_rule.cite, rule.cite}))))
    return cycles


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
    names: list[str] = []
    node: Occurrence | None = occ
    while node is not None:
        names.append(node.concept)
        if node is base:
            break
        node = node.parent
    return tuple(reversed(names))


def _target_path(forest: OccurrenceForest, occ: Occurrence,
                 multi: set[str]) -> tuple[str, ...]:
    base = _tree_base(forest, occ, multi)
    names: list[str] = []
    node: Occurrence | None = occ
    while node is not None and node is not base:
        names.append(node.concept)
        node = node.parent
    return tuple(names) if names else (occ.concept,)


def extract_cycles(scene: Scene, forest: OccurrenceForest) -> CycleReport:
    """Uni-directional entry links and the repeatable process cycles.

    Cycles are admitted only when a reverse rule pair or a self-loop rule
    enables them; the raw rule adjacencies alone do not make a walk a
    process cycle.
    """
    cycles: list[Cycle] = []
    seen: set[tuple[tuple[str, ...], str]] = set()
    for pair in reverse_pairs(scene):
        for cycle in _pair_cycles(pair):
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
                concept,
                _source_path(forest, occ, multi),
                _target_path(forest, prim, multi)))
    cycle_concepts = sorted({name for cycle in cycles for name in cycle.concepts})
    for concept in cycle_concepts:
        for occ in forest.occurrences.get(concept, ()):
            links.append(UniLink(
                concept, _source_path(forest, occ, multi), (concept,)))
    unique = sorted(set(links),
                    key=lambda l: (l.concept, l.source_path, l.target_path))
    return CycleReport(tuple(unique), tuple(cycles))


def _rotation_key(walk: tuple[str, ...]) -> tuple[str, ...]:
    pivot = min(range(len(walk)), key=lambda i: walk[i:] + walk[:i])
    return walk[pivot:] + walk[:pivot]


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


def report_to_dot(scene: Scene, report: CycleReport) -> str:
    """Process adjacencies in gray with each cycle's edges colored."""
    edges, loops = process_edges(scene)
    lines = ["digraph process_cycles {", "  node [shape=ellipse];"]
    colored: dict[tuple[str, str], str] = {}
    for index, cycle in enumerate(report.cycles):
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
    def node(occ: Occurrence) -> dict:
        payload: dict = {"concept": occ.concept, "origin": occ.origin}
        if occ.contained:
            payload["contained"] = True
        if occ.children:
            payload["children"] = [node(child) for child in occ.children]
        return payload

    payload = {
        "format_version": 1,
        "roots": [node(root) for root in forest.roots],
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
    return json.dumps(payload, indent=2) + "\n"
