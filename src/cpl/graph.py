"""Graph queries shared by the checker, the forest and the hierarchy.

A graph is an adjacency mapping from a node to its successors; a successor
that is not itself a key is a node without successors.  Every traversal is
iterative, so depth is bounded by memory rather than by the interpreter's
recursion limit, and visits nodes in sorted order, so results do not depend
on the order the edges were inserted in.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


def strongly_connected(
        adjacency: Mapping[str, Iterable[str]]) -> list[list[str]]:
    """Every strongly connected component, members sorted, in the order
    Tarjan's algorithm (1972) completes them.

    A single node is a component of its own whether or not it has a
    self-edge.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []

    def enter(node: str) -> tuple[str, Iterable[str]]:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(sorted(adjacency.get(node, ())))

    for root in sorted(adjacency):
        if root in index:
            continue
        work = [enter(root)]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if nxt not in index:
                    work.append(enter(nxt))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(sorted(component))
    return components


def reachable(adjacency: Mapping[str, Iterable[str]],
              starts: Iterable[str], seen: set[str] | None = None) -> set[str]:
    """The starts plus every node a path leads to from one of them.

    Given ``seen``, the walk enters no node already in it, adds every
    node it enters to it and returns that set, so calls that share one
    set walk each node once between them."""
    seen = set() if seen is None else seen
    frontier = [node for node in starts if node not in seen]
    seen.update(frontier)
    while frontier:
        for nxt in adjacency.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def simple_cycles(adjacency: Mapping[str, Iterable[str]]) -> list[tuple[str, ...]]:
    """All simple cycles of a small digraph, each rooted at its smallest
    member."""
    ordered = {node: sorted(successors)
               for node, successors in adjacency.items()}
    cycles: list[tuple[str, ...]] = []
    for start in sorted(ordered):
        stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in ordered.get(node, ()):
                if nxt == start and len(path) >= 2:
                    cycles.append(path)
                elif nxt > start and nxt not in path:
                    stack.append((nxt, path + (nxt,)))
    return cycles
