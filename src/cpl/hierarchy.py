"""Fully-connected ensemble and the single-node-per-concept hierarchy.

The ensemble holds exactly one node per concept used by the rules, weighted
by the co-occurrence counts.  The hierarchy is then grown from the rule
paths, rooted at the strongest (most frequently used) concept: each rule's
derived path is oriented so its end nearest the root comes first and is
inserted link by link.  Because every concept keeps a single node, shared
steps converge and the result is a DAG rather than a tree.  A rule that
merely reverses an earlier one repeats a process and inserts nothing.

Construction is sequential by contract: the trace logs every ensemble
weight update and hierarchy insertion, and a hierarchy link only ever
follows the ensemble update of its concept pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from . import graph
from .ast import Rule, Scene, derive_result
# Unused here, but perfbench/tracing.py counts calls by rebinding this name.
from .ast import is_reverse_pair  # noqa: F401
from .forest import reverse_pairs
from .grid import FrequencyGrid, build_grid
from .parser import Diagnostic, error


@dataclass(frozen=True)
class Ensemble:
    """One node per used concept; pair weights are the grid's counts."""

    concepts: tuple[str, ...]
    grid: FrequencyGrid

    def weight(self, a: str, b: str) -> int:
        return self.grid.count(a, b)

    def strength(self, name: str) -> int:
        return self.grid.strength(name)


@dataclass(frozen=True)
class TraceEvent:
    """One construction step; ``kind`` is "ensemble", "node" or "edge"."""

    kind: str
    rule: str
    subject: tuple[str, ...]
    weight: int = 0


@dataclass(frozen=True)
class Hierarchy:
    root: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def parents(self, name: str) -> tuple[str, ...]:
        return tuple(parent for parent, child in self.edges if child == name)

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(child for parent, child in self.edges if parent == name)

    def _adjacency(self) -> dict[str, list[str]]:
        adjacency: dict[str, list[str]] = {name: [] for name in self.nodes}
        for parent, child in self.edges:
            adjacency[parent].append(child)
        return adjacency

    def is_acyclic(self) -> bool:
        """No edge returns to where it started; a self-edge is a cycle."""
        return all(parent != child for parent, child in self.edges) and all(
            len(c) == 1 for c in graph.strongly_connected(self._adjacency()))

    def reachable_from_root(self) -> set[str]:
        return graph.reachable(self._adjacency(), [self.root])


@dataclass(frozen=True)
class HierarchyBuild:
    hierarchy: Hierarchy
    trace: tuple[TraceEvent, ...]
    diagnostics: tuple[Diagnostic, ...]


def build_ensemble(scene: Scene) -> Ensemble:
    """One node per concept a rule mentions, weighted by the grid counts."""
    return Ensemble(tuple(c.name for c in scene.used_concepts()),
                    build_grid(scene))


def select_root(ensemble: Ensemble) -> str:
    """The strongest concept anchors the hierarchy; ties break by name."""
    if not ensemble.concepts:
        raise ValueError("cannot select a root from an empty ensemble")
    return min(ensemble.concepts,
               key=lambda name: (-ensemble.strength(name), name))


def _repeat_rules(scene: Scene) -> set[int]:
    """Ordinals of rules that reverse an earlier, non-repeat rule."""
    # Positions by identity: equal rules compare equal.
    position = {id(rule): index for index, rule in enumerate(scene.rules)}
    repeats: set[int] = set()
    for earlier, later in sorted(reverse_pairs(scene),
                                 key=lambda pair: position[id(pair[1])]):
        if earlier.ordinal not in repeats:
            repeats.add(later.ordinal)
    return repeats


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
        if parent in graph.reachable(self.children, [child]):
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


def build_hierarchy(scene: Scene,
                    ensemble: Ensemble | None = None) -> HierarchyBuild:
    """Grow the hierarchy from the rule paths in scene order.

    Every rule first updates the ensemble weights; insertions follow, so
    each hierarchy link is preceded by the matching ensemble update.  Rules
    whose path shares no concept with the root component stay pending and
    are retried after each insertion; whatever never connects is reported.
    """
    if ensemble is None:
        ensemble = build_ensemble(scene)
    root = select_root(ensemble)
    repeats = _repeat_rules(scene)
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

    for rule in scene.rules:
        members = [c.name for c in rule.lhs_concepts()]
        for a, b in combinations(members, 2):
            pair = frozenset((a, b))
            running[pair] = running.get(pair, 0) + 1
            builder.trace.append(TraceEvent(
                "ensemble", rule.cite, tuple(sorted(pair)), running[pair]))
        if rule.self_loop or rule.ordinal in repeats:
            continue
        for term in derive_result(rule.outputs, rule.inputs):
            path = tuple(c.name for c in term)
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
    return HierarchyBuild(hierarchy, tuple(builder.trace), tuple(diagnostics))


def hierarchy_to_dot(build: HierarchyBuild) -> str:
    """The root sits at the bottom; links point upward to less-used concepts."""
    lines = [
        "digraph process_hierarchy {",
        "  rankdir=BT;",
        "  node [shape=ellipse];",
        f'  "{build.hierarchy.root}" [shape=doubleoctagon];',
    ]
    for parent, child in build.hierarchy.edges:
        lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hierarchy_to_json(build: HierarchyBuild, ensemble: Ensemble) -> str:
    payload = {
        "format_version": 1,
        "root": build.hierarchy.root,
        "nodes": list(build.hierarchy.nodes),
        "edges": [list(edge) for edge in build.hierarchy.edges],
        "strengths": {
            name: ensemble.strength(name) for name in ensemble.concepts},
        "trace": [
            {"kind": event.kind, "rule": event.rule,
             "subject": list(event.subject),
             **({"weight": event.weight} if event.kind == "ensemble" else {})}
            for event in build.trace
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
