"""Fully-connected ensemble and the single-node-per-concept hierarchy.

The ensemble is the frequency grid taken over every concept the rules use:
one node per concept, weighted by the co-occurrence counts.  The hierarchy
is then grown from the rule paths, rooted at the strongest (most frequently
used) concept: each rule's derived path is oriented so its end nearest the
root comes first and is inserted link by link.  Because every concept
keeps a single node, shared steps converge and the result is a DAG rather
than a tree.  A rule that merely reverses an earlier one repeats a process
and inserts nothing.

Construction is sequential by contract: the trace logs every ensemble
weight update and hierarchy insertion, and a hierarchy link only ever
follows the ensemble update of its concept pair.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple

from . import graph
from .ast import Rule, Scene, derive_result
# Unused here, but perfbench/tracing.py counts calls by rebinding this name.
from .ast import is_reverse_pair  # noqa: F401
from .forest import reverse_pairs
from .grid import FrequencyGrid, build_grid
from .parser import Diagnostic, error


class TraceEvent(NamedTuple):
    """One construction step; ``kind`` is "ensemble", "node" or "edge"."""

    kind: str
    rule: str
    subject: tuple[str, ...]
    weight: int = 0


class Hierarchy(NamedTuple):
    root: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


class HierarchyBuild(NamedTuple):
    hierarchy: Hierarchy
    trace: tuple[TraceEvent, ...]
    diagnostics: tuple[Diagnostic, ...]


def build_ensemble(scene: Scene) -> FrequencyGrid:
    """The grid over every concept a rule mentions, in first-mention order;
    a concept that co-occurs with none has no counts."""
    grid = build_grid(scene)
    concepts = tuple(c.name for c in scene.used_concepts())
    for name in concepts:
        grid.neighbours.setdefault(name, {})
    return FrequencyGrid(concepts, grid.neighbours)


def select_root(ensemble: FrequencyGrid) -> str:
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
        self.depth = {root: 0}  # insertion order is the node order
        self.children: dict[str, dict[str, None]] = {}
        self.edges: list[tuple[str, str]] = []
        self.trace: list[TraceEvent] = []

    def link(self, parent: str, child: str, cite: str) -> None:
        """Link a known parent to a child, adding the child if it is new."""
        if child not in self.depth:
            # A new child has no descendants, so the link closes no cycle.
            self.depth[child] = self.depth[parent] + 1
            self.trace.append(TraceEvent("node", cite, (child,)))
        elif child in self.children.get(parent, ()):
            return
        elif parent in graph.reachable(self.children, [child]):
            return  # a link back toward the root would fold the DAG shut
        self.children.setdefault(parent, {})[child] = None
        self.edges.append((parent, child))
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
            if a in self.depth:
                self.link(a, b, cite)
            elif b in self.depth:
                self.link(b, a, cite)
            # both unknown: skip until the walk reaches known ground
        return True


def build_hierarchy(scene: Scene, ensemble: FrequencyGrid) -> HierarchyBuild:
    """Grow the hierarchy from the rule paths in scene order.

    Every rule first updates the ensemble weights; insertions follow, so
    each hierarchy link is preceded by the matching ensemble update.  Rules
    whose path shares no concept with the root component stay pending and
    are retried after each insertion; whatever never connects is reported.
    """
    root = select_root(ensemble)
    repeats = _repeat_rules(scene)
    builder = _Builder(root)
    running: dict[frozenset[str], int] = {}
    pending: list[tuple[Rule, tuple[str, ...]]] = []

    def retry_pending() -> None:
        progress = True
        while progress and pending:
            still = [(rule, path) for rule, path in pending
                     if not builder.insert_path(path, rule.cite)]
            progress = len(still) < len(pending)
            pending[:] = still

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

    hierarchy = Hierarchy(root, tuple(builder.depth), tuple(builder.edges))
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


def hierarchy_to_json(build: HierarchyBuild, ensemble: FrequencyGrid) -> str:
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
