"""Straightforward graph code kept as differential oracles for ``cpl.graph``.

These are the checker's recursive Tarjan, the forest's fixpoint closure,
the hierarchy builder's edge-scan reachability and the hierarchy's
recursive acyclicity test as they stood before the traversals moved into
``cpl.graph``.  They recurse and rescan freely, so use them on small graphs
only.
"""

from __future__ import annotations


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
