"""Tests for the frozen CSR snapshot (the fast-path read layout)."""

import pytest

from repro.core.builder import from_obj
from repro.core.frozen import FrozenGraph, freeze
from repro.core.graph import Graph, GraphError
from repro.core.labels import integer, string, sym


def movie_graph() -> Graph:
    return from_obj(
        {
            "Entry": [
                {"Movie": {"Title": "Casablanca", "Year": 1942}},
                {"Movie": {"Title": "Play it again, Sam", "Director": "Allen"}},
            ]
        }
    )


def cyclic_graph() -> Graph:
    g = Graph()
    a, b, c = g.new_node(), g.new_node(), g.new_node()
    g.set_root(a)
    g.add_edge(a, "next", b)
    g.add_edge(b, "next", c)
    g.add_edge(c, "back", a)
    g.add_edge(a, "skip", c)
    return g


class TestReadApiMirror:
    def test_nodes_and_counts(self):
        g = movie_graph()
        fg = g.freeze()
        assert list(fg.nodes()) == list(g.nodes())
        assert fg.num_nodes == g.num_nodes
        assert fg.num_edges == g.num_edges
        assert fg.root == g.root
        assert fg.has_root

    def test_edges_from_preserves_order_and_values(self):
        g = movie_graph()
        fg = g.freeze()
        for node in g.nodes():
            assert fg.edges_from(node) == g.edges_from(node)

    def test_edges_enumeration(self):
        g = cyclic_graph()
        fg = g.freeze()
        assert list(fg.edges()) == list(g.edges())

    def test_degrees(self):
        g = movie_graph()
        fg = g.freeze()
        for node in g.nodes():
            assert fg.out_degree(node) == g.out_degree(node)
        nodes = list(g.nodes())[:3]
        assert fg.total_out_degree(nodes) == g.total_out_degree(nodes)

    def test_successors_with_and_without_label(self):
        g = movie_graph()
        fg = g.freeze()
        for node in g.nodes():
            assert list(fg.successors(node)) == list(g.successors(node))
            for label in g.labels_from(node):
                assert list(fg.successors(node, label)) == list(
                    g.successors(node, label)
                )
            assert list(fg.successors(node, sym("NoSuchLabel"))) == []

    def test_labels(self):
        g = movie_graph()
        fg = g.freeze()
        assert fg.all_labels() == g.all_labels()
        for node in g.nodes():
            assert fg.labels_from(node) == g.labels_from(node)

    def test_reachable(self):
        g = cyclic_graph()
        orphan = g.new_node()
        g.add_edge(orphan, "dangling", orphan)
        fg = g.freeze()
        assert fg.reachable() == g.reachable()
        assert fg.reachable(orphan) == g.reachable(orphan)
        # the cached root set must be a private copy
        first = fg.reachable()
        first.clear()
        assert fg.reachable() == g.reachable()

    def test_bfs_edges(self):
        g = cyclic_graph()
        fg = g.freeze()
        assert list(fg.bfs_edges()) == list(g.bfs_edges())

    def test_unknown_node_raises(self):
        fg = movie_graph().freeze()
        with pytest.raises(GraphError):
            fg.edges_from(10_000)
        with pytest.raises(GraphError):
            fg.out_degree(-1)

    def test_rootless_graph(self):
        g = Graph()
        a = g.new_node()
        g.add_edge(a, "x", g.new_node())
        fg = FrozenGraph(g)
        assert not fg.has_root
        with pytest.raises(GraphError):
            _ = fg.root


class TestSparseIds:
    def test_non_dense_node_ids(self):
        """A hole in the id space must route through the explicit
        node-id index instead of the dense id==position fast path."""
        g = Graph()
        a, hole, b, c = (g.new_node() for _ in range(4))
        g.set_root(a)
        g.add_edge(a, "x", b)
        g.add_edge(b, "y", c)
        del g._adj[hole]  # simulate a collected node: ids 0, 2, 3
        fg = g.freeze()
        assert fg.index is not None
        assert fg.has_node(c) and not fg.has_node(hole)
        for node in g.nodes():
            assert fg.edges_from(node) == g.edges_from(node)
        assert fg.reachable() == g.reachable()
        with pytest.raises(GraphError):
            fg.edges_from(hole)

    def test_dense_ids_skip_the_index(self):
        fg = movie_graph().freeze()
        assert fg.index is None
        assert not fg.has_node(fg.num_nodes)


class TestLabelPartitions:
    def test_edges_with_label(self):
        g = movie_graph()
        fg = g.freeze()
        title_edges = [e for e in g.edges() if e.label == sym("Title")]
        assert list(fg.edges_with_label(sym("Title"))) == title_edges
        assert fg.edges_with_label(sym("NoSuchLabel")) == ()
        assert list(fg.edges_with_label(integer(1942))) == [
            e for e in g.edges() if e.label == integer(1942)
        ]

    def test_partitions_cover_all_edges(self):
        g = cyclic_graph()
        fg = g.freeze()
        for pos, node in enumerate(fg.node_ids):
            # each bucket holds the node's targets under one label, in order
            covered = {
                fg.labels_seq[lid]: list(bucket) for lid, bucket in fg.partitions[pos].items()
            }
            assert covered == {
                label: list(g.successors(node, label)) for label in g.labels_from(node)
            }
        assert sum(len(b) for part in fg.partitions for b in part.values()) == fg.num_edges


class TestFreezeThaw:
    def test_freeze_is_idempotent(self):
        fg = movie_graph().freeze()
        assert fg.freeze() is fg
        assert freeze(fg) is fg

    def test_thaw_round_trip(self):
        g = cyclic_graph()
        thawed = g.freeze().thaw()
        assert thawed.root == g.root
        assert list(thawed.nodes()) == list(g.nodes())
        for node in g.nodes():
            assert thawed.edges_from(node) == g.edges_from(node)

    def test_snapshot_is_independent_of_later_mutation(self):
        g = movie_graph()
        fg = g.freeze()
        edges_before = fg.num_edges
        g.add_edge(g.root, "Later", g.new_node())
        assert fg.num_edges == edges_before
        assert g.num_edges == edges_before + 1

    def test_string_values_intern_distinctly(self):
        g = Graph()
        r = g.new_node()
        g.set_root(r)
        g.add_edge(r, string("x"), g.new_node())
        g.add_edge(r, sym("x"), g.new_node())
        fg = g.freeze()
        assert len(fg.labels_seq) == 2
        assert list(fg.edges_with_label(string("x"))) != list(
            fg.edges_with_label(sym("x"))
        )
