"""Tests for graph partitioning and decomposed query evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.product import rpq_nodes
from repro.core.builder import from_obj
from repro.core.graph import Graph
from repro.distributed import (
    centralized_work,
    distributed_rpq,
    partition_graph,
)


def web_graph(n: int = 40) -> Graph:
    """A small deterministic 'web': chains with cross links and a cycle."""
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    for i in range(n - 1):
        g.add_edge(nodes[i], "link", nodes[i + 1])
    for i in range(0, n - 5, 5):
        g.add_edge(nodes[i], "xref", nodes[(i * 3 + 7) % n])
    g.add_edge(nodes[n - 1], "link", nodes[0])  # cycle back
    return g


class TestPartition:
    def test_every_reachable_node_assigned(self):
        g = web_graph()
        dist = partition_graph(g, 4)
        assert set(dist.site_of) == g.reachable()

    def test_members_partition_nodes(self):
        dist = partition_graph(web_graph(), 4)
        all_members = [n for site in dist.members for n in site]
        assert len(all_members) == len(set(all_members))

    def test_bfs_has_better_locality_than_hash(self):
        g = web_graph(60)
        bfs = partition_graph(g, 4, strategy="bfs")
        hashed = partition_graph(g, 4, strategy="hash")
        assert bfs.locality() > hashed.locality()

    def test_single_site_has_full_locality(self):
        dist = partition_graph(web_graph(), 1)
        assert dist.locality() == 1.0
        assert dist.cross_edges() == []

    def test_input_nodes_are_cross_targets(self):
        g = web_graph()
        dist = partition_graph(g, 3, strategy="hash")
        for site in range(3):
            for node in dist.input_nodes(site):
                assert dist.site_of[node] == site

    def test_bad_args(self):
        with pytest.raises(ValueError):
            partition_graph(web_graph(), 0)
        with pytest.raises(ValueError):
            partition_graph(web_graph(), 2, strategy="nope")


class TestDistributedRpq:
    @pytest.mark.parametrize("strategy", ["bfs", "hash"])
    @pytest.mark.parametrize("sites", [1, 2, 4, 7])
    def test_answers_match_centralized(self, strategy, sites):
        g = web_graph()
        dist = partition_graph(g, sites, strategy=strategy)
        for pattern in ["link*", "#", "link.link.xref", "(link|xref)*"]:
            distributed, _ = distributed_rpq(dist, pattern)
            assert distributed == rpq_nodes(g, pattern), (pattern, strategy, sites)

    def test_total_work_matches_centralized(self):
        g = web_graph()
        dist = partition_graph(g, 4)
        _, stats = distributed_rpq(dist, "link*")
        assert stats.total_work == centralized_work(dist, "link*")

    @pytest.mark.parametrize("sites", [1, 2])
    def test_a_pruned_walk_is_pruned_at_every_site(self, sites):
        # ``#.a`` expands only nodes that can reach an ``a`` edge: the
        # root; x and y are reached and recorded, never expanded
        g = Graph()
        root, x, y, z = (g.new_node() for _ in range(4))
        g.set_root(root)
        g.add_edge(root, "b", x)
        g.add_edge(x, "b", y)
        g.add_edge(root, "a", z)
        dist = partition_graph(g, sites)
        result, stats = distributed_rpq(dist, "#.a")
        assert result == rpq_nodes(g, "#.a") == {z}
        assert stats.total_work == centralized_work(dist, "#.a") == 1

    def test_makespan_at_most_total(self):
        dist = partition_graph(web_graph(), 4)
        _, stats = distributed_rpq(dist, "(link|xref)*")
        assert stats.makespan <= stats.total_work
        assert stats.speedup >= 1.0

    def test_one_site_no_messages(self):
        dist = partition_graph(web_graph(), 1)
        _, stats = distributed_rpq(dist, "link*")
        assert stats.messages == 0
        assert stats.supersteps == 1

    def test_messages_bounded_by_cross_configs(self):
        g = web_graph()
        dist = partition_graph(g, 4, strategy="hash")
        _, stats = distributed_rpq(dist, "link*")
        assert stats.messages > 0  # hash partition forces communication

    def test_on_movie_db(self):
        g = from_obj(
            {"Entry": [{"Movie": {"Title": "A"}}, {"Movie": {"Title": "B"}}]}
        )
        dist = partition_graph(g, 3)
        result, _ = distributed_rpq(dist, "Entry.Movie.Title")
        assert result == rpq_nodes(g, "Entry.Movie.Title")


@st.composite
def graph_and_sites(draw):
    n = draw(st.integers(1, 8))
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    for _ in range(draw(st.integers(0, 12))):
        g.add_edge(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from("ab")),
            draw(st.sampled_from(nodes)),
        )
    sites = draw(st.integers(1, 4))
    strategy = draw(st.sampled_from(["bfs", "hash"]))
    return g, sites, strategy


@given(graph_and_sites(), st.sampled_from(["a*", "(a|b)*", "a.b", "#.a"]))
@settings(max_examples=80, deadline=None)
def test_prop_distributed_equals_centralized(gs, pattern):
    g, sites, strategy = gs
    dist = partition_graph(g, sites, strategy=strategy)
    result, stats = distributed_rpq(dist, pattern)
    assert result == rpq_nodes(g, pattern)
    assert stats.total_work == centralized_work(dist, pattern)
