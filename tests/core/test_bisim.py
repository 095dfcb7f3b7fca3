"""Tests for bisimulation equality, including hypothesis property tests."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bisim import (
    bisimilar,
    bisimilar_nodes,
    bisimulation_classes,
    coarsest_partition,
    reduce_graph,
)
from repro.core.builder import from_obj
from repro.core.graph import Graph
from repro.core.labels import string, sym


def cyclic_pair():
    """Two different-size graphs with the same infinite unfolding a-a-a..."""
    g1 = Graph()
    n = g1.new_node()
    g1.set_root(n)
    g1.add_edge(n, "a", n)

    g2 = Graph()
    x, y = g2.new_node(), g2.new_node()
    g2.set_root(x)
    g2.add_edge(x, "a", y)
    g2.add_edge(y, "a", x)
    return g1, g2


class TestBisimilar:
    def test_empty_graphs_bisimilar(self):
        assert bisimilar(Graph.empty(), Graph.empty())

    def test_label_mismatch_not_bisimilar(self):
        assert not bisimilar(Graph.singleton("a"), Graph.singleton("b"))

    def test_symbol_vs_string_not_bisimilar(self):
        assert not bisimilar(
            Graph.singleton(sym("a")), Graph.singleton(string("a"))
        )

    def test_duplicate_edges_are_set_collapsed(self):
        # {a: {}} U {a: {}} = {a: {}} -- edges are a *set*.
        g = Graph.singleton("a").union(Graph.singleton("a"))
        assert bisimilar(g, Graph.singleton("a"))

    def test_edge_order_is_irrelevant(self):
        g1 = Graph.singleton("a").union(Graph.singleton("b"))
        g2 = Graph.singleton("b").union(Graph.singleton("a"))
        assert bisimilar(g1, g2)

    def test_self_loop_equals_two_cycle(self):
        g1, g2 = cyclic_pair()
        assert bisimilar(g1, g2)

    def test_cycle_not_bisimilar_to_finite_chain(self):
        g1, _ = cyclic_pair()
        finite = from_obj({"a": {"a": {"a": None}}})
        assert not bisimilar(g1, finite)

    def test_depth_difference_detected(self):
        g1 = from_obj({"a": {"b": None}})
        g2 = from_obj({"a": {"b": {"c": None}}})
        assert not bisimilar(g1, g2)

    def test_shared_vs_duplicated_subtree(self):
        # Sharing a subtree is not observable: DAG == tree expansion.
        shared = Graph()
        r, mid, leaf = shared.new_node(), shared.new_node(), shared.new_node()
        shared.set_root(r)
        shared.add_edge(r, "x", mid)
        shared.add_edge(r, "y", mid)
        shared.add_edge(mid, "z", leaf)
        expanded = from_obj({"x": {"z": None}, "y": {"z": None}})
        assert bisimilar(shared, expanded)


class TestPartition:
    def test_partition_groups_equivalent_leaves(self):
        g = from_obj({"a": None, "b": None})
        classes = bisimulation_classes(g)
        sizes = sorted(len(c) for c in classes)
        # two leaves collapse into one class; root alone.
        assert sizes == [1, 2]

    def test_bisimilar_nodes_within_graph(self):
        g = Graph()
        r, a, b = g.new_node(), g.new_node(), g.new_node()
        g.set_root(r)
        g.add_edge(r, "x", a)
        g.add_edge(r, "x", b)
        assert bisimilar_nodes(g, a, b)
        assert not bisimilar_nodes(g, r, a)

    def test_partition_of_cycle_collapses_rotations(self):
        g = Graph()
        nodes = [g.new_node() for _ in range(4)]
        g.set_root(nodes[0])
        for i in range(4):
            g.add_edge(nodes[i], "n", nodes[(i + 1) % 4])
        partition = coarsest_partition(g)
        assert len(set(partition.values())) == 1


class TestReduce:
    def test_reduce_collapses_duplicate_leaves(self):
        g = from_obj({"a": None, "b": None})
        reduced = reduce_graph(g)
        assert reduced.num_nodes == 2  # root + single shared leaf

    def test_reduce_preserves_value(self):
        g = from_obj({"Movie": {"Title": "Casablanca", "Year": 1942}})
        assert bisimilar(g, reduce_graph(g))

    def test_reduce_two_cycle_to_self_loop(self):
        _, g2 = cyclic_pair()
        reduced = reduce_graph(g2)
        assert reduced.num_nodes == 1
        assert reduced.has_cycle()

    def test_reduce_is_idempotent(self):
        g = from_obj({"a": {"c": None}, "b": {"c": None}})
        once = reduce_graph(g)
        twice = reduce_graph(once)
        assert once.num_nodes == twice.num_nodes
        assert bisimilar(once, twice)


# ---------------------------------------------------------------------------
# Property tests


@st.composite
def nested_objects(draw, max_depth: int = 3):
    """JSON-shaped trees over a small label alphabet."""
    if max_depth == 0:
        return draw(st.sampled_from(["v1", "v2", 1, 2, None]))
    keys = draw(st.lists(st.sampled_from("abcd"), max_size=3, unique=True))
    return {k: draw(nested_objects(max_depth=max_depth - 1)) for k in keys}


@st.composite
def random_graphs(draw, max_nodes: int = 6):
    """Arbitrary rooted edge-labeled graphs, cycles included."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    edge_count = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(edge_count):
        src = draw(st.sampled_from(nodes))
        dst = draw(st.sampled_from(nodes))
        lab = draw(st.sampled_from("ab"))
        g.add_edge(src, lab, dst)
    return g


@given(nested_objects())
@settings(max_examples=60, deadline=None)
def test_prop_bisimilarity_reflexive(obj):
    g = from_obj(obj)
    assert bisimilar(g, g)
    assert bisimilar(g, g.copy())


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_prop_reduce_preserves_bisimilarity(g):
    assert bisimilar(g, reduce_graph(g))


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_prop_reduce_is_minimal(g):
    """No two distinct nodes of a reduced graph are bisimilar."""
    reduced = reduce_graph(g)
    partition = coarsest_partition(reduced, reduced.reachable())
    assert len(set(partition.values())) == len(partition)


def unfolded_size(g: Graph, depth: int) -> int:
    """Nodes in ``g.unfold(depth)``: one per walk of at most ``depth`` edges
    from the root, counted level by level without building the tree."""
    level = {g.root: 1}
    total = 1
    for _ in range(depth):
        below: dict[int, int] = {}
        for node, walks in level.items():
            for edge in g.edges_from(node):
                below[edge.dst] = below.get(edge.dst, 0) + walks
        level = below
        total += sum(below.values())
    return total


# An unfolding is exponential in depth: six nodes with twelve self-loops on
# the root unfold to 12**7 nodes at depth 7, which exhausts memory.
MAX_UNFOLDED = 20_000


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_prop_graph_bisimilar_to_deep_unfolding(g):
    """Unfolding beyond the node count cannot be told apart at that depth.

    Full bisimilarity needs infinite unfolding for cyclic graphs, but any
    graph is *depth-k bisimilar* to its depth-k unfolding; we check that by
    unfolding both sides to the same depth and comparing.
    """
    depth = g.num_nodes + 1
    assume(unfolded_size(g, depth) <= MAX_UNFOLDED)
    assert bisimilar(g.unfold(depth), g.unfold(depth))
    # and the unfolding of the reduction matches the unfolding of g
    assert bisimilar(g.unfold(depth), reduce_graph(g).unfold(depth))
