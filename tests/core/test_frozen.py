"""Tests for the frozen CSR snapshot (the fast-path read layout)."""

from typing import Iterator

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


def run_buckets(fg: FrozenGraph, pos: int) -> "list[tuple[int, list[int]]]":
    """The node at ``pos``'s targets per label id, read through its label
    runs, labels in first-occurrence order."""
    buckets: dict[int, list[int]] = {}
    start = fg.offsets[pos]
    for r in range(fg.run_off[pos], fg.run_off[pos + 1]):
        end = start + fg.run_len[r]
        buckets.setdefault(fg.run_lid[r], []).extend(fg.targets[start:end])
        start = end
    return list(buckets.items())


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
            covered = {fg.labels_seq[lid]: bucket for lid, bucket in run_buckets(fg, pos)}
            assert covered == {
                label: list(g.successors(node, label)) for label in g.labels_from(node)
            }
        assert sum(
            len(b) for pos in range(fg.num_nodes) for _, b in run_buckets(fg, pos)
        ) == fg.num_edges


def assert_runs_are_the_buckets(fg: FrozenGraph) -> None:
    """Every node's targets under every label, read through its runs,
    are its edges with that label in insertion order; runs are maximal."""
    assert all(fg.run_len) and sum(fg.run_len) == fg.num_edges
    assert len(fg.run_off) == fg.num_nodes + 1 and fg.run_off[-1] == len(fg.run_lid)
    for pos, node in enumerate(fg.node_ids):
        edges = fg.edges_from(node)
        by_label: dict = {}
        for lid, bucket in run_buckets(fg, pos):
            by_label.setdefault(fg.labels_seq[lid], []).extend(bucket)
        for label in {e.label for e in edges} | {sym("absent")}:
            expected = [e.dst for e in edges if e.label == label]
            assert by_label.get(label, []) == expected
            assert list(fg.successors(node, label)) == expected
        lids = fg.run_lid[fg.run_off[pos] : fg.run_off[pos + 1]]
        assert all(a != b for a, b in zip(lids, lids[1:]))
        assert fg.labels_from(node) == {e.label for e in edges}


def runs_by_label(fg: FrozenGraph) -> tuple:
    """The runs with label ids read as labels: equal across snapshots
    that intern labels in different orders."""
    return (
        list(fg.run_off), [fg.labels_seq[lid] for lid in fg.run_lid], list(fg.run_len)
    )


#: five commits over ``recurring_graph``: (new nodes, edges) with ``-k`` the
#: k-th new node of the commit.  They extend a node's last run (a: x),
#: open a run (a: z), make a label recur (b: p, q, p), give an edgeless
#: node its first edges, add new labels, and grow several old nodes at once.
COMMITS = [
    (1, [(0, "x", -1), (1, "q", 2)]),
    (2, [(-1, "new", -2), (1, "p", 3), (0, "z", 1), (3, "leaf", -2)]),
    (0, [(0, "z", 2), (2, "first", 0), (0, "x", 3)]),
    (1, [(-1, "x", 0), (-1, "y", 1), (-1, "x", 2), (4, "q", -1)]),
    (0, [(1, "p", 0), (0, "x", 0), (7, "tail", 0)]),
]


def recurring_graph() -> Graph:
    """Node 0's label ``x`` recurs after ``y``: two runs of one label."""
    g = Graph()
    a, b, c, d = (g.new_node() for _ in range(4))
    g.set_root(a)
    g.add_edge(a, "x", b)
    g.add_edge(a, "y", c)
    g.add_edge(a, "x", d)
    g.add_edge(b, "p", c)
    g.add_edge(b, "q", d)
    return g


def derive_chain(g: Graph) -> "Iterator[FrozenGraph]":
    """Apply ``COMMITS`` to ``g``, yielding each derived snapshot."""
    fg = g.freeze()
    for fresh, edges in COMMITS:
        nodes = [g.new_node() for _ in range(fresh)]
        ref = {-k - 1: node for k, node in enumerate(nodes)}
        added = [
            g.add_edge(ref.get(src, src), label, ref.get(dst, dst)) for src, label, dst in edges
        ]
        fg = fg.derive(nodes, added, g.root, g.version)
        yield fg


class TestLabelRuns:
    def test_cold_freeze(self):
        fg = recurring_graph().freeze()
        assert_runs_are_the_buckets(fg)
        x = fg.label_index[sym("x")]
        assert list(fg.run_lid[fg.run_off[0] : fg.run_off[1]]) == [x, fg.label_index[sym("y")], x]

    def test_edge_stream(self):
        g = recurring_graph()
        stream = ((e.src, e.label, e.dst) for e in g.edges())
        fg = FrozenGraph.from_edge_stream(g.num_nodes + 2, stream)
        assert_runs_are_the_buckets(fg)
        assert runs_by_label(fg)[1:] == runs_by_label(g.freeze())[1:]
        assert list(fg.run_off[-3:]) == [len(fg.run_lid)] * 3  # the edgeless tail

    def test_derive_chain_equals_cold_freeze_run_for_run(self):
        g = recurring_graph()
        for fg in derive_chain(g):
            assert_runs_are_the_buckets(fg)
            assert runs_by_label(fg) == runs_by_label(g.freeze())
            # a node's run widths sum to its out-degree
            assert [
                sum(fg.run_len[fg.run_off[pos] : fg.run_off[pos + 1]])
                for pos in range(fg.num_nodes)
            ] == [fg.out_degree(node) for node in fg.node_ids]

    def test_checkpoint_reopen(self):
        from repro.storage.mvcc import _decode_state, _encode_state

        g = recurring_graph()
        *_, fg = derive_chain(g)
        opened, _ = _decode_state(bytes(_encode_state(fg, g.num_nodes, 5)[16:]), 5)
        assert_runs_are_the_buckets(opened)
        assert (opened.run_off, opened.run_lid, opened.run_len) == (
            fg.run_off, fg.run_lid, fg.run_len
        )


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
