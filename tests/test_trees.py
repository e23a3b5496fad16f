"""The rooted walk of ``PhyloTree``: every tree consumer reads it, it
rejects graphs that are not trees, and no consumer walks
``leaves_beyond`` (kept as the tests' independent oracle)."""

import numpy as np
import pytest

from phylokit.evolution import (
    all_same_probability,
    pattern_probability,
    simulate_leaf_sequences,
)
from phylokit.formats import emit_newick, parse_newick
from phylokit.trees import PhyloTree
from phylokit.treespace import (
    check_m_tree,
    cherries,
    m_dissimilarity,
    neighbor_join,
    splits_of_tree,
    tree_metric,
)

from conftest import caterpillar, random_tree

CONSUMERS = {
    "children_from": lambda t: t.children_from(t.nodes()[0]),
    "pattern_probability": lambda t: pattern_probability(t, {x: "C" for x in t.taxa}),
    "all_same_probability": all_same_probability,
    "simulate_leaf_sequences": lambda t: simulate_leaf_sequences(t, 20, seed=3),
    "emit_newick": emit_newick,
    "splits_of_tree": splits_of_tree,
    "m_dissimilarity": lambda t: m_dissimilarity(t, 3),
    "cherries": cherries,
    "tree_metric": tree_metric,
}


def _two_components() -> PhyloTree:
    """The 2-leaf trees a-b and c-d side by side in one graph."""
    graph = PhyloTree()
    for x, y in ("ab", "cd"):
        graph.add_edge(graph.add_node(label=x), graph.add_node(label=y), 0.3)
    return graph


def _triangle() -> PhyloTree:
    """Three internal nodes joined in a cycle, each carrying one leaf."""
    graph = PhyloTree()
    hubs = [graph.add_node() for _ in range(3)]
    for i, name in enumerate("abc"):
        graph.add_edge(hubs[i], hubs[(i + 1) % 3], 0.2)
        graph.add_edge(hubs[i], graph.add_node(label=name), 0.1)
    return graph


def _hidden_triangle() -> PhyloTree:
    """Leaves a, b, c on x, and x in a cycle x-y-z whose other two nodes
    have degree 2, so suppressing them would merge parallel edges."""
    graph = PhyloTree()
    x, y, z = (graph.add_node() for _ in range(3))
    for u, v in ((x, y), (y, z), (z, x)):
        graph.add_edge(u, v, 1.0)
    for name in "abc":
        graph.add_edge(x, graph.add_node(label=name), 0.5)
    return graph


def _labeled_internal_node() -> PhyloTree:
    """a-h, h-m, m-b, m-c, h-d with the internal node m labeled."""
    graph = PhyloTree()
    h, m = graph.add_node(), graph.add_node(label="m")
    graph.add_edge(h, m, 1.0)
    for host, name in ((h, "a"), (m, "b"), (m, "c"), (h, "d")):
        graph.add_edge(host, graph.add_node(label=name), 1.0)
    return graph


@pytest.mark.parametrize(
    "graph, reason",
    [
        (_two_components, "disconnected"),
        (_triangle, "a cycle"),
        (_hidden_triangle, "a cycle"),
        (_labeled_internal_node, "labeled node 'm' has 3 neighbors"),
    ],
)
@pytest.mark.parametrize("consumer", list(CONSUMERS))
def test_consumers_reject_graphs_that_are_not_trees(graph, reason, consumer):
    with pytest.raises(ValueError, match=f"^not a tree: {reason}"):
        CONSUMERS[consumer](graph())


def test_no_consumer_walks_leaves_beyond(monkeypatch):
    tree = random_tree(5, 12)
    sub = random_tree(6, 9)
    for u, v, length in sub.edges()[:4]:
        sub.split_edge(u, v, length / 2)

    def refuse(self, u, v):
        raise AssertionError("leaves_beyond is the tests' oracle, not a walk")

    monkeypatch.setattr(PhyloTree, "leaves_beyond", refuse)
    for t in (tree, sub, parse_newick("((a:1,b:2):0.5,(c:1,d:1):0.25);")):
        for consume in CONSUMERS.values():
            consume(t)
    neighbor_join(tree_metric(tree))
    check_m_tree(m_dissimilarity(tree, 3))


def test_add_edge_rejects_non_finite_lengths():
    tree = PhyloTree()
    hub = tree.add_node()
    for bad in (float("inf"), float("-inf"), float("nan"), -1.0):
        with pytest.raises(ValueError, match="finite and non-negative"):
            tree.add_edge(hub, tree.add_node(), bad)
    tree.add_edge(hub, leaf := tree.add_node(), -0.0)
    assert str(tree.edge_length(hub, leaf)) == "0.0"


def _per_leaf_metric(tree: PhyloTree) -> np.ndarray:
    """Path lengths between the sorted taxa, by one walk from each leaf."""
    taxa = tree.taxa
    values = np.zeros((len(taxa), len(taxa)))
    for i, a in enumerate(taxa):
        dist = {tree.node_of(a): 0.0}
        stack = [tree.node_of(a)]
        while stack:
            x = stack.pop()
            for y, length in tree.neighbors(x).items():
                if y not in dist:
                    dist[y] = dist[x] + length
                    stack.append(y)
        values[i] = [dist[tree.node_of(b)] for b in taxa]
    return values


def test_tree_metric_matches_the_per_leaf_walks():
    trees = [random_tree(400 + seed, 3 + seed * 5) for seed in range(6)]
    for tree in trees[:3]:  # subdivided edges: degree-2 nodes
        for u, v, length in tree.edges()[::2]:
            tree.split_edge(u, v, length / 3)
    leaf_first = PhyloTree()  # nodes()[0] is a leaf
    first, hub = leaf_first.add_node(label="m"), leaf_first.add_node()
    leaf_first.add_edge(first, hub, 0.4)
    for name, length in (("b", 0.1), ("z", 0.2), ("a", 0.3)):
        leaf_first.add_edge(hub, leaf_first.add_node(label=name), length)
    trees += [leaf_first, caterpillar(40, 410), parse_newick("(a:1,b:2);")]
    for tree in trees:
        got = tree_metric(tree)
        want = _per_leaf_metric(tree)
        assert got.taxa == tree.taxa
        assert np.array_equal(got.values, got.values.T)
        assert np.all(np.diag(got.values) == 0.0)
        assert np.allclose(got.values, want, rtol=1e-12, atol=0.0)


def test_tree_metric_of_an_empty_and_a_one_leaf_tree():
    empty = tree_metric(PhyloTree())
    assert empty.taxa == () and empty.values.shape == (0, 0)
    single = PhyloTree()
    single.add_node(label="a")
    one = tree_metric(single)
    assert one.taxa == ("a",) and one.values.tolist() == [[0.0]]
    with pytest.raises(ValueError, match="splits need at least two taxa"):
        splits_of_tree(PhyloTree())
    with pytest.raises(ValueError, match="splits need at least two taxa"):
        splits_of_tree(single)
