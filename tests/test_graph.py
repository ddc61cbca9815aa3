from hypothesis import given, strategies as st

import oracles
from cpl import graph
from cpl.hierarchy import Hierarchy

from genhelpers import is_acyclic, reachable_from_root


@st.composite
def digraphs(draw, max_nodes=12):
    """Node names plus a set of directed edges, self-edges included."""
    count = draw(st.integers(1, max_nodes))
    nodes = [f"n{i:02d}" for i in range(count)]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    return nodes, sorted(draw(st.sets(pairs, max_size=3 * count)))


def adjacency_of(edges):
    """Only edge sources become keys, as in the checker."""
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    return adjacency


@given(digraphs())
def test_strongly_connected_matches_recursive_tarjan(graph_case):
    nodes, edges = graph_case
    components = graph.strongly_connected(adjacency_of(edges))
    assert [c for c in components if len(c) > 1] == oracles.strongly_connected(edges)


@given(digraphs())
def test_strongly_connected_partitions_the_nodes(graph_case):
    nodes, edges = graph_case
    adjacency = {name: [] for name in nodes} | adjacency_of(edges)
    members = [name for c in graph.strongly_connected(adjacency) for name in c]
    assert sorted(members) == nodes


@given(digraphs(), st.data())
def test_reachable_matches_fixpoint_closure(graph_case, data):
    nodes, edges = graph_case
    starts = data.draw(st.sets(st.sampled_from(nodes)))
    assert (graph.reachable(adjacency_of(edges), starts)
            == oracles.closure(edges, starts))


class _Entered(dict):
    """An adjacency that records the nodes a walk enters."""

    def __init__(self, adjacency):
        super().__init__(adjacency)
        self.entered = []

    def get(self, node, default=None):
        self.entered.append(node)
        return super().get(node, default)


@given(digraphs(), st.data())
def test_reachable_extends_seen_without_entering_it(graph_case, data):
    nodes, edges = graph_case
    first = data.draw(st.sets(st.sampled_from(nodes)))
    starts = data.draw(st.sets(st.sampled_from(nodes)))
    seen = graph.reachable(adjacency_of(edges), first)
    before = set(seen)
    adjacency = _Entered(adjacency_of(edges))
    assert graph.reachable(adjacency, starts, seen) is seen
    assert seen == oracles.closure(edges, first | starts)
    assert sorted(adjacency.entered) == sorted(seen - before)


@given(digraphs())
def test_reachable_matches_edge_scan(graph_case):
    nodes, edges = graph_case
    adjacency = adjacency_of(edges)
    for parent in nodes:
        for child in nodes:
            assert ((parent in graph.reachable(adjacency, [child]))
                    == oracles.creates_cycle(edges, parent, child))


@given(digraphs())
def test_hierarchy_queries_match_oracles(graph_case):
    nodes, edges = graph_case
    hierarchy = Hierarchy(nodes[0], tuple(nodes), tuple(edges))
    assert is_acyclic(hierarchy) == oracles.is_acyclic(nodes, edges)
    assert reachable_from_root(hierarchy) == oracles.closure(edges, [nodes[0]])


@given(digraphs(max_nodes=6))
def test_simple_cycles_are_closed_walks(graph_case):
    nodes, edges = graph_case
    adjacency = adjacency_of(edges)
    cycles = graph.simple_cycles(adjacency)
    for walk in cycles:
        assert len(walk) >= 2 and len(set(walk)) == len(walk)
        assert walk[0] == min(walk)
        for a, b in zip(walk, walk[1:] + walk[:1]):
            assert (a, b) in edges
    assert len(set(cycles)) == len(cycles)
    assert bool(cycles) == bool(oracles.strongly_connected(edges))


def test_long_chain_needs_no_recursion():
    names = [f"c{i:05d}" for i in range(5000)]
    chain = {a: [b] for a, b in zip(names, names[1:])}
    assert graph.reachable(chain, [names[0]]) == set(names)
    assert len(graph.strongly_connected(chain)) == len(names)
    chain[names[-1]] = [names[0]]
    assert graph.strongly_connected(chain) == [names]
