"""Straightforward code kept as differential oracles for ``cpl``.

The graph oracles are the checker's recursive Tarjan, the forest's fixpoint
closure, the hierarchy builder's edge-scan reachability and the hierarchy's
recursive acyclicity test as they stood before the traversals moved into
``cpl.graph``.  The scene-fact oracles are the grid's clustering over
linearly scanned counts and the all-pairs reverse-rule scans of the forest
and the hierarchy, as they stood before those facts were looked up by key.
They recurse and rescan freely, so use them on small inputs only.
"""

from __future__ import annotations

from cpl.ast import is_reverse_pair
from cpl.grid import Clustering, FrequencyGrid


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


def reverse_pairs(scene) -> list:
    """``is_reverse_pair`` on every pair of rules, in scene order."""
    pairs = []
    rules = scene.rules
    for i, a in enumerate(rules):
        for b in rules[i + 1:]:
            if is_reverse_pair(a, b):
                pairs.append((a, b))
    return pairs


def repeat_rules(scene) -> set[int]:
    """Ordinals of rules that reverse an earlier, non-repeat rule, by
    checking every earlier rule for each rule."""
    repeats: set[int] = set()
    rules = scene.rules
    for j, later in enumerate(rules):
        for i in range(j):
            if rules[i].ordinal in repeats:
                continue
            if is_reverse_pair(rules[i], later):
                repeats.add(later.ordinal)
                break
    return repeats
