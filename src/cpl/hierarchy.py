"""Fully-connected ensemble and the single-node-per-concept hierarchy.

The ensemble is the frequency grid taken over every concept the rules use:
one node per concept, weighted by the co-occurrence counts.  The hierarchy
is then grown from the rule paths, rooted at the strongest (most frequently
used) concept: each rule's derived path is oriented so its end nearest the
root comes first and is inserted link by link.  Because every concept
keeps a single node, shared links converge and the result is a DAG rather
than a tree.  A rule that merely reverses an earlier one repeats a process
and inserts nothing; it is known by its position in ``cpl.ast.reverse_pairs``,
so equal scenes build equal hierarchies.

Construction is sequential by contract: the trace logs every ensemble
weight update and hierarchy insertion, and a hierarchy link only ever
follows the ensemble update of its concept pair.  The build stores only the
rule cited by each link, and where each rule's turn ends among the links;
when ``trace`` is read, the weight updates are recounted from the rules'
left-hand sides, and each new node is logged just before the first link
into it, which is where the builder adds it.

The builder keeps a rank for every node such that every link runs from a
lower to a higher rank; a new child takes the next rank.  A link whose
parent ranks below its child therefore closes no cycle and is accepted at
once.  Otherwise a path from the child back to the parent could only pass
through nodes ranked between the two, so only those are searched: the ones
that reach the parent, where meeting the child refuses the link, then the
ones the child reaches.  The first set then takes the lowest of the two
sets' pooled ranks, each set keeping its own order (Pearce and Kelly, "A
dynamic topological sort algorithm for directed acyclic graphs", JEA 2006).

A path that shares no concept with the hierarchy waits under a number,
indexed by each concept it names, and only a new node it names wakes it.
A retry pass inserts the woken paths in number order; a path woken during
the pass joins it if its number comes after the one being inserted, and
waits for the next pass otherwise, as if every waiting path were tried in
turn, pass after pass, until a pass places none.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations
from typing import NamedTuple

from .ast import Diagnostic, Rule, Scene, derive_result, error, reverse_pairs
# Unused here, but perfbench/tracing.py counts calls by rebinding this name.
from .ast import is_reverse_pair  # noqa: F401
from .grid import FrequencyGrid, build_grid


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
    """The hierarchy, and the rule ``cites[k]`` that placed
    ``hierarchy.edges[k]``; ``ends[i]`` counts the edges placed when
    ``rules[i]``'s turn ended."""

    hierarchy: Hierarchy
    diagnostics: tuple[Diagnostic, ...]
    rules: tuple[Rule, ...]
    cites: tuple[str, ...]
    ends: tuple[int, ...]

    @property
    def trace(self) -> tuple[TraceEvent, ...]:
        """The construction log: for each rule in turn, its ensemble weight
        updates, one per pair of its left-hand side, then its turn's edges,
        each new node just before the first edge into it.  Recounted on
        every read."""
        events: list[TraceEvent] = []
        running: dict[tuple[str, str], int] = {}
        placed: set[str] = set()
        edges = self.hierarchy.edges
        start = 0
        for rule, end in zip(self.rules, self.ends):
            for a, b in combinations(rule.lhs_names(), 2):
                pair = (a, b) if a < b else (b, a)
                running[pair] = weight = running.get(pair, 0) + 1
                events.append(TraceEvent("ensemble", rule.cite, pair, weight))
            for edge, cite in zip(edges[start:end], self.cites[start:end]):
                child = edge[1]
                if child not in placed:
                    placed.add(child)
                    events.append(TraceEvent("node", cite, (child,)))
                events.append(TraceEvent("edge", cite, edge))
            start = end
        return tuple(events)


def build_ensemble(scene: Scene) -> FrequencyGrid:
    """The grid over every concept a rule mentions, in first-mention order;
    a concept that co-occurs with none has no counts."""
    grid = build_grid(scene)
    concepts = scene.used_names()
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
    """Positions of rules that reverse an earlier, non-repeat rule.  The
    pairs come by earlier position, so every pair that can make a rule a
    repeat is read before the pairs where it is the earlier rule."""
    repeats: set[int] = set()
    for i, j in reverse_pairs(scene.rules):
        if i not in repeats:
            repeats.add(j)
    return repeats


class _Builder:
    __slots__ = ("depth", "rank", "children", "parents", "edges", "cites",
                 "pending", "waiting", "woken", "inserting", "numbers")

    def __init__(self, root: str):
        self.depth = {root: 0}  # insertion order is the node order
        self.rank = {root: 0}  # every link runs from a lower to a higher rank
        self.children: dict[str, dict[str, None]] = {root: {}}
        self.parents: dict[str, list[str]] = {root: []}
        self.edges: list[tuple[str, str]] = []
        self.cites: list[str] = []  # the rule placing each edge
        # Waiting paths by number and the numbers under each concept they
        # name.  A new node wakes the numbers under it into a heap of
        # (pass, number): those after the number being inserted join its
        # pass, and the rest wait for the next pass.  A number woken twice
        # is skipped once inserted.
        self.pending: dict[int, tuple[Rule, tuple[str, ...]]] = {}
        self.waiting: dict[str, list[int]] = {}
        self.woken: list[tuple[int, int]] = []
        self.inserting = (0, -1)  # (pass, number) being inserted
        self.numbers = 0

    def link(self, parent: str, child: str, cite: str) -> None:
        """Link a known parent to a child, adding the child if it is new."""
        if child not in self.depth:
            # A new child has no descendants, so the link closes no cycle.
            self.depth[child] = self.depth[parent] + 1
            self.rank[child] = len(self.rank)
            self.children[child] = {}
            self.parents[child] = []
            now, inserting = self.inserting
            for number in self.waiting.pop(child, ()):
                if number in self.pending:
                    later = now if number > inserting else now + 1
                    heappush(self.woken, (later, number))
        elif child in self.children[parent]:
            return
        elif not self.rerank(parent, child):
            return  # a link back toward the root would fold the DAG shut
        self.children[parent][child] = None
        self.parents[child].append(parent)
        self.edges.append((parent, child))
        self.cites.append(cite)

    def rerank(self, parent: str, child: str) -> bool:
        """Ranks that let the link parent -> child rise; False, ranks
        untouched, when the child reaches the parent (or is the parent)."""
        rank = self.rank
        low, high = rank[child], rank[parent]
        if low > high:
            return True
        if child == parent:
            return False
        # Every node on a path from the child to the parent ranks between
        # the two, so the searches need not leave that range.
        behind = {parent}
        stack = [parent]
        while stack:
            for prev in self.parents[stack.pop()]:
                if rank[prev] >= low and prev not in behind:
                    if prev == child:
                        return False
                    behind.add(prev)
                    stack.append(prev)
        ahead = {child}
        stack = [child]
        while stack:
            for nxt in self.children[stack.pop()]:
                if rank[nxt] < high and nxt not in ahead:
                    ahead.add(nxt)
                    stack.append(nxt)
        # The nodes reaching the parent take the lowest of the pooled
        # ranks, each side keeping its own order.
        moved = sorted(behind, key=rank.get) + sorted(ahead, key=rank.get)
        for name, place in zip(moved, sorted(map(rank.get, moved))):
            rank[name] = place
        return True

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

    def wait(self, rule: Rule, path: tuple[str, ...]) -> None:
        """Keep a path that shares no concept with the hierarchy yet."""
        self.pending[self.numbers] = (rule, path)
        for name in path:
            self.waiting.setdefault(name, []).append(self.numbers)
        self.numbers += 1

    def retry(self) -> None:
        """Insert the woken paths, pass by pass, in rising number within a
        pass."""
        while self.woken:
            self.inserting = heappop(self.woken)
            if (entry := self.pending.pop(self.inserting[1], None)):
                rule, path = entry
                self.insert_path(path, rule.cite)
        self.inserting = (0, -1)


def build_hierarchy(scene: Scene, ensemble: FrequencyGrid) -> HierarchyBuild:
    """Grow the hierarchy from the rule paths in scene order.

    Every rule's turn inserts its paths; the ensemble update that precedes
    them in the trace is recounted when ``trace`` is read.  Rules whose
    path shares no concept with the root component stay pending and are
    retried once a concept they name joins; whatever never connects is
    reported.
    """
    root = select_root(ensemble)
    repeats = _repeat_rules(scene)
    builder = _Builder(root)
    ends: list[int] = []

    for position, rule in enumerate(scene.rules):
        if position not in repeats:
            for path in derive_result(rule.outputs, rule.inputs):
                if not builder.insert_path(path, rule.cite):
                    builder.wait(rule, path)
            builder.retry()
        ends.append(len(builder.edges))

    diagnostics: list[Diagnostic] = []
    if builder.pending:
        waiting = builder.pending.values()
        stranded = sorted({rule.cite for rule, _ in waiting})
        first = next(iter(waiting))[0]
        diagnostics.append(error(
            f"rules share no concept with the hierarchy rooted at {root!r}: "
            + ", ".join(stranded), first.span))

    hierarchy = Hierarchy(root, tuple(builder.depth), tuple(builder.edges))
    return HierarchyBuild(hierarchy, tuple(diagnostics), scene.rules,
                          tuple(builder.cites), tuple(ends))


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
