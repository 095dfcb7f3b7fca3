"""Property suite for the pluggable partition strategies.

The invariants every strategy must satisfy (whatever the graph):

* **total assignment** -- every node gets exactly one site in range, so
  node sizes sum to ``num_nodes`` and owned-edge sizes sum to
  ``num_edges`` (every edge assigned exactly once, to its source's
  site);
* **balance** -- hash is perfectly balanced by construction; greedy
  never exceeds its declared capacity ``ceil(n/k * 1.1)``;
* **determinism** -- partitioning the same snapshot twice gives the
  identical table (two processes must agree without communicating);
* **clustering pays** -- on host-local crawl graphs the greedy cut is
  no worse than the locality-blind hash cut (the reason the strategy
  exists), and the decomposed query sends fewer messages in fewer
  supersteps for it (experiment E17).
"""

from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import rpq_nodes
from repro.core.graph import Graph
from repro.datasets import generate_crawl
from repro.distributed import build_partition, distributed_rpq
from repro.distributed.sites import partition_graph


@st.composite
def frozen_graphs(draw, max_nodes: int = 12):
    n = draw(st.integers(1, max_nodes))
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    for _ in range(draw(st.integers(0, 24))):
        g.add_edge(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from(["link", "ref", "cite"])),
            draw(st.sampled_from(nodes)),
        )
    return g.freeze()


SITES = st.integers(1, 5)
STRATEGIES = st.sampled_from(["hash", "label", "greedy"])


@given(frozen_graphs(), SITES, STRATEGIES)
@settings(max_examples=120, deadline=None)
def test_every_node_and_edge_assigned_exactly_once(fg, k, strategy):
    part = build_partition(fg, k, strategy)
    assert len(part.site_of) == fg.num_nodes
    assert all(0 <= site < k for site in part.site_of)
    assert sum(part.stats.sizes) == fg.num_nodes
    assert sum(part.stats.edge_sizes) == fg.num_edges
    # members() is the inverse view of the same table
    members = part.members()
    assert sorted(pos for site in members for pos in site) == list(
        range(fg.num_nodes)
    )


@given(frozen_graphs(), SITES)
@settings(max_examples=80, deadline=None)
def test_hash_is_perfectly_balanced(fg, k):
    part = build_partition(fg, k, "hash")
    assert max(part.stats.sizes) - min(part.stats.sizes) <= 1


@given(frozen_graphs(), SITES)
@settings(max_examples=80, deadline=None)
def test_greedy_respects_capacity(fg, k):
    part = build_partition(fg, k, "greedy")
    assert max(part.stats.sizes) <= ceil(fg.num_nodes / k * 1.1)


@given(frozen_graphs(), SITES, STRATEGIES)
@settings(max_examples=60, deadline=None)
def test_partitioning_is_deterministic(fg, k, strategy):
    assert list(build_partition(fg, k, strategy).site_of) == list(
        build_partition(fg, k, strategy).site_of
    )


@given(
    st.integers(0, 2**31),
    st.integers(400, 1500),
    st.integers(10, 60),
    st.integers(2, 5),
)
@settings(max_examples=15, deadline=None)
def test_greedy_cut_no_worse_than_hash_on_clustered_graphs(
    seed, num_pages, mean_host, k
):
    fg = generate_crawl(num_pages, seed=seed, mean_host=mean_host)
    greedy = build_partition(fg, k, "greedy")
    hashed = build_partition(fg, k, "hash")
    assert greedy.stats.cut_edges <= hashed.stats.cut_edges
    # and stats agree on what was partitioned
    assert greedy.stats.num_edges == hashed.stats.num_edges == fg.num_edges


def test_stats_account_for_cut_edges_exactly():
    g = Graph()
    a, b, c, d = (g.new_node() for _ in range(4))
    g.set_root(a)
    g.add_edge(a, "x", b)  # 0 -> 1
    g.add_edge(a, "x", c)  # 0 -> 2
    g.add_edge(c, "x", d)  # 2 -> 3
    fg = g.freeze()
    part = build_partition(fg, 2, "hash")  # sites: [0, 1, 0, 1]
    # a->b (0->1) and c->d (0->1) cross parity; a->c (0->0) stays local
    assert part.stats.cut_edges == 2
    assert part.stats.cut_fraction == pytest.approx(2 / 3)
    assert part.stats.locality == pytest.approx(1 / 3)
    assert part.site_of_node(fg, c) == 0


def test_unknown_strategy_and_bad_sites_rejected():
    fg = Graph().freeze()
    with pytest.raises(ValueError, match="unknown partition strategy"):
        build_partition(fg, 2, "metis")
    with pytest.raises(ValueError, match="at least one site"):
        build_partition(fg, 0, "hash")


@pytest.mark.parametrize("strategy", ["hash", "label", "greedy"])
def test_partition_graph_accepts_new_strategy_names(strategy):
    g = Graph()
    a, b, c = (g.new_node() for _ in range(3))
    g.set_root(a)
    g.add_edge(a, "x", b)
    g.add_edge(b, "y", c)
    dist = partition_graph(g, 2, strategy=strategy)
    assert dist.num_sites == 2
    assert set(dist.site_of.values()) <= {0, 1}


def test_locality_strategies_cut_messages_and_supersteps():
    # E17: one crawl, one query, three segmentations.  At 5 000 pages and
    # 4 sites hash sends 5 205 messages over 15 supersteps, label 821
    # over 4, greedy 1 015 over 5; every strategy answers the same 150.
    graph = generate_crawl(5000, seed=0).thaw()
    query = "(link|ref)*.cite"
    expected = set(rpq_nodes(graph, query))
    stats = {}
    for strategy in ("hash", "label", "greedy"):
        results, stats[strategy] = distributed_rpq(
            partition_graph(graph, 4, strategy), query
        )
        assert set(results) == expected, strategy
    hash_run = stats["hash"]
    for strategy in ("label", "greedy"):
        assert 3 * stats[strategy].messages < hash_run.messages, strategy
        assert stats[strategy].supersteps < hash_run.supersteps, strategy
