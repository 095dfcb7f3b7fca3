"""Tests for RPQ evaluation on graphs (the product construction)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.product import (
    RpqStepper,
    compile_rpq,
    naive_rpq,
    product_bfs,
    rpq_nodes,
    rpq_nodes_many,
    rpq_witnesses,
)
from repro.core.builder import from_obj
from repro.core.graph import Graph, GraphError
from repro.core.labels import string, sym
from repro.datasets import generate_movies
from repro.obs import QueryProfile
from repro.resilience import PartialResult, completeness_of


def movie_graph() -> Graph:
    return from_obj(
        {
            "Entry": [
                {"Movie": {"Title": "Casablanca", "Cast": ["Bogart", "Bacall"]}},
                {"Movie": {"Title": "Play it again, Sam", "Director": "Allen"}},
            ]
        }
    )


class TestRpqNodes:
    def test_fixed_path(self):
        g = movie_graph()
        hits = rpq_nodes(g, "Entry.Movie.Title")
        assert len(hits) == 2  # both title nodes

    def test_empty_pattern_matches_root(self):
        g = movie_graph()
        assert rpq_nodes(g, "()") == {g.root}

    def test_hash_reaches_everything(self):
        g = movie_graph()
        assert rpq_nodes(g, "#") == g.reachable()

    def test_find_string_anywhere(self):
        g = movie_graph()
        hits = rpq_nodes(g, '#."Casablanca"')
        assert len(hits) == 1

    def test_cyclic_graph_terminates(self):
        g = Graph()
        a, b = g.new_node(), g.new_node()
        g.set_root(a)
        g.add_edge(a, "next", b)
        g.add_edge(b, "next", a)
        hits = rpq_nodes(g, "next*")
        assert hits == {a, b}

    def test_negated_label_constraint(self):
        # Allen reachable below Movie without crossing another Movie edge.
        g = from_obj(
            {
                "Movie": {
                    "Cast": "Allen",
                    "Sequel": {"Movie": {"Cast": "Allen"}},
                }
            }
        )
        direct = rpq_nodes(g, 'Movie.(!Movie)*."Allen"')
        assert len(direct) == 1  # only the outer movie's Allen leaf

    def test_start_override(self):
        g = movie_graph()
        (entry_edge, *_) = g.edges_from(g.root)
        hits = rpq_nodes(g, "Movie.Title", start=entry_edge.dst)
        assert len(hits) == 1

    def test_alternation_over_attributes(self):
        g = movie_graph()
        hits = rpq_nodes(g, "Entry.Movie.(Cast|Director)")
        assert len(hits) == 3

    def test_compile_accepts_precompiled(self):
        dfa = compile_rpq("Entry.Movie")
        g = movie_graph()
        assert rpq_nodes(g, dfa) == rpq_nodes(g, "Entry.Movie")


class TestWitnesses:
    def test_witness_spells_matching_path(self):
        g = movie_graph()
        wit = rpq_witnesses(g, 'Entry.Movie.Title."Casablanca"')
        ((node, path),) = wit.items()
        spelled = [e.label for e in path]
        assert spelled == [
            sym("Entry"),
            sym("Movie"),
            sym("Title"),
            string("Casablanca"),
        ]
        assert path[-1].dst == node

    def test_witness_for_root_is_empty(self):
        g = movie_graph()
        assert rpq_witnesses(g, "#")[g.root] == ()

    def test_witness_is_shortest(self):
        g = Graph()
        r, mid, leaf = g.new_node(), g.new_node(), g.new_node()
        g.set_root(r)
        g.add_edge(r, "a", leaf)          # short way
        g.add_edge(r, "a", mid)
        g.add_edge(mid, "a", leaf)        # long way
        wit = rpq_witnesses(g, "a+")
        assert len(wit[leaf]) == 1

    def test_witness_on_cycle(self):
        g = Graph()
        a = g.new_node()
        g.set_root(a)
        g.add_edge(a, "loop", a)
        wit = rpq_witnesses(g, "loop.loop.loop")
        assert len(wit[a]) == 3


class TestUnknownOrigin:
    """A start that is not a node is rejected up front, identically on
    both layouts.  (A frozen graph used to walk ``offsets[-3]``'s edges
    for ``start=-3`` and raise a bare ``IndexError`` past the end.)"""

    ENTRY_POINTS = {
        "rpq_nodes": lambda g, start: rpq_nodes(g, "_*", start=start),
        "rpq_nodes_profiled": lambda g, start: rpq_nodes(
            g, "_*", start=start, profile=QueryProfile()
        ),
        "rpq_nodes_partial": lambda g, start: PartialResult(
            rpq_nodes(g, "_*", start=start), completeness_of(g)
        ),
        "rpq_nodes_many": lambda g, start: rpq_nodes_many(g, "_*", [g.root, start]),
        "rpq_witnesses": lambda g, start: rpq_witnesses(g, "_*", start=start),
        "rpq_witnesses_profiled": lambda g, start: rpq_witnesses(
            g, "_*", start=start, profile=QueryProfile()
        ),
        "product_bfs": lambda g, start: product_bfs(g, compile_rpq("_*"), start),
        "RpqStepper": lambda g, start: RpqStepper(g, "_*", start),
    }

    @pytest.mark.parametrize("frozen", [False, True], ids=["graph", "frozen"])
    @pytest.mark.parametrize("start", [-3, -1, 10**6])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_every_entry_point_raises_graph_error(self, entry, start, frozen):
        g = movie_graph()
        with pytest.raises(GraphError, match=f"unknown node {start}"):
            self.ENTRY_POINTS[entry](g.freeze() if frozen else g, start)

    def test_sparse_ids_are_checked_against_the_index(self):
        # ids 0 and 2 only: 1 is inside the id range but is not a node
        g = Graph()
        a, b = g.ensure_node(0), g.ensure_node(2)
        g.set_root(a)
        g.add_edge(a, "x", b)
        assert g.freeze().index is not None
        for graph in (g, g.freeze()):
            assert rpq_nodes(graph, "x", start=a) == {b}
            with pytest.raises(GraphError, match="unknown node 1"):
                rpq_nodes(graph, "x", start=1)


def test_the_scan_template_expands_only_what_can_reach_bogart():
    """``_*."Bogart"`` (the served ``rpq_scan`` template) walks the nodes
    with a path to a ``"Bogart"`` edge.  Recorded when the prune landed:
    933 edges read, closure included, in 5 supersteps, where the full
    scan read all 3 745 edges in 6."""
    g = generate_movies(300, seed=7)
    expected = naive_rpq(g, '_*."Bogart"', max_length=8)
    assert len(expected) == 45
    for graph in (g, g.freeze()):
        stepper = RpqStepper(graph, '_*."Bogart"')
        assert stepper.run() == expected
        assert (stepper.ops, stepper.supersteps) == (933, 5)


class TestNaiveBaseline:
    def test_agrees_with_product_on_trees(self):
        g = movie_graph()
        for pattern in ["Entry.Movie.Title", "#", "Entry._.Cast", "Entry.Movie.(Cast|Director)"]:
            assert naive_rpq(g, pattern, max_length=8) == rpq_nodes(g, pattern)

    def test_bounded_on_cycles(self):
        g = Graph()
        a = g.new_node()
        g.set_root(a)
        g.add_edge(a, "n", a)
        assert naive_rpq(g, "n*", max_length=5) == {a}

    def test_max_length_zero_checks_only_origin(self):
        g = movie_graph()
        assert naive_rpq(g, "()", max_length=0) == {g.root}
        assert naive_rpq(g, "Entry", max_length=0) == set()

    def test_deep_chain_does_not_recurse(self):
        """A 50k-deep chain: the explicit-stack DFS must not hit the
        interpreter recursion limit (the old implementation did)."""
        depth = 50_000
        g = Graph()
        head = g.new_node()
        g.set_root(head)
        cur = head
        for _ in range(depth):
            nxt = g.new_node()
            g.add_edge(cur, "next", nxt)
            cur = nxt
        hits = naive_rpq(g, "next*", max_length=depth)
        assert len(hits) == depth + 1
        assert hits == rpq_nodes(g, "next*")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 5))
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    for _ in range(draw(st.integers(1, 7))):
        g.add_edge(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from("ab")),
            draw(st.sampled_from(nodes)),
        )
    return g


@given(
    small_graphs(),
    st.sampled_from(["a", "a.b", "a*", "(a|b)*", "a.b*", "#.a", "!a", "(a.b)+"]),
)
@settings(max_examples=120, deadline=None)
def test_prop_product_agrees_with_naive_up_to_bound(g, pattern):
    """On arbitrary small graphs the product matches naive enumeration,
    restricted to nodes whose shortest witness fits the naive bound."""
    bound = 6
    naive = naive_rpq(g, pattern, max_length=bound)
    product = rpq_nodes(g, pattern)
    # naive can only under-approximate (missing long witnesses)
    assert naive <= product
    witnesses = rpq_witnesses(g, pattern)
    for node, path in witnesses.items():
        if len(path) <= bound:
            assert node in naive


def test_public_kernel_api_is_importable_without_underscores():
    # the Lorel evaluator depends on this name being public
    from repro.automata import product
    from repro.automata import product_bfs as exported

    assert exported is product_bfs
    assert not hasattr(product, "_product_bfs")
