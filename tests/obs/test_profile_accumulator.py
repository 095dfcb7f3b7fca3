"""The accumulator contract: one entry point per query, ``profile=`` fills it.

Three laws, one per section:

* passing a profile never changes the answer -- every family;
* passing the *same* profile to two calls sums their counts (what the
  UnQL and Lorel evaluators rely on for their sub-queries);
* the profile describes the run that answered -- a profiled ``find`` on a
  served snapshot takes the label probe and leaves nothing behind on it.
"""

import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.automata.product import rpq_nodes, rpq_witnesses
from repro.browse import find_attribute_names, find_integers_greater_than, find_value
from repro.core.convert import graph_to_oem
from repro.core.graph import Graph
from repro.datasets import figure1, generate_movies, generate_web
from repro.distributed import distributed_rpq, partition_graph
from repro.lorel import evaluate_lorel, lorel_bindings, lorel_rows, parse_lorel
from repro.obs import QueryProfile
from repro.obs.export import to_json
from repro.obs.profile import _COUNT_FIELDS
from repro.service import InProcessHarness, QueryService
from repro.unql import evaluate_query, parse_query, unql

PATTERNS = ["a", "a.b", "(a|b)*", "a*.c", "_*.b"]
UNQL = r"select {T: \t} where {Entry.Movie: {Title: \t}} in db"
LOREL = "select m.Title from DB.Entry.Movie m where m.Year < 1960"


@st.composite
def small_graphs(draw):
    g = Graph()
    nodes = [g.new_node() for _ in range(draw(st.integers(1, 7)))]
    g.set_root(nodes[0])
    for _ in range(draw(st.integers(0, 12))):
        g.add_edge(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from(["a", "b", "c"])),
            draw(st.sampled_from(nodes)),
        )
    return g


def edges_of(graph):
    return sorted(
        (e.src, str(e.label), e.dst) for n in graph.reachable() for e in graph.edges_from(n)
    )


# -- a profile never changes the answer -----------------------------------------


@settings(deadline=None)
@given(g=small_graphs(), pattern=st.sampled_from(PATTERNS), frozen=st.booleans())
def test_rpq_and_witnesses_answer_the_same_with_a_profile(g, pattern, frozen):
    graph = g.freeze() if frozen else g
    assert rpq_nodes(graph, pattern, profile=QueryProfile()) == rpq_nodes(graph, pattern)
    assert rpq_witnesses(graph, pattern, profile=QueryProfile()) == rpq_witnesses(
        graph, pattern
    )


@settings(deadline=None)
@given(g=small_graphs(), pattern=st.sampled_from(PATTERNS), sites=st.integers(1, 3))
def test_distributed_answers_the_same_with_a_profile(g, pattern, sites):
    dist = partition_graph(g, sites, strategy="hash")
    profile = QueryProfile()
    results, stats = distributed_rpq(dist, pattern, profile=profile)
    plain_results, plain_stats = distributed_rpq(dist, pattern)
    assert results == plain_results == rpq_nodes(g, pattern)
    assert stats.work == plain_stats.work
    assert (profile.supersteps, profile.messages) == (stats.supersteps, stats.messages)


@pytest.mark.parametrize("frozen", [False, True], ids=["graph", "frozen"])
def test_unql_lorel_and_browse_answer_the_same_with_a_profile(frozen):
    g = generate_movies(20, seed=3)
    graph = g.freeze() if frozen else g
    query = parse_query(UNQL)
    assert edges_of(evaluate_query(query, {"db": graph}, profile=QueryProfile())) == edges_of(
        evaluate_query(query, {"db": graph})
    )
    assert edges_of(unql(UNQL, profile=QueryProfile(), db=graph)) == edges_of(
        unql(UNQL, db=graph)
    )
    db, lq = graph_to_oem(g), parse_lorel(LOREL)
    assert lorel_rows(evaluate_lorel(lq, db, profile=QueryProfile())) == lorel_rows(
        evaluate_lorel(lq, db)
    )
    assert lorel_bindings(lq, db, profile=QueryProfile()) == lorel_bindings(lq, db)
    for find, arg in (
        (find_value, "Bogart"),
        (find_integers_greater_than, 1950),
        (find_attribute_names, "Tit%"),
    ):
        assert find(graph, arg, profile=QueryProfile()) == find(graph, arg)


# -- the same profile, two calls: the counts add up --------------------------------


def _sum_law(call):
    """``call(profile)`` twice into one profile == the sum of two fresh runs."""
    first, second, both = QueryProfile(), QueryProfile(), QueryProfile()
    call(first)
    call(second)
    call(both)
    call(both)
    for name in _COUNT_FIELDS:
        assert getattr(both, name) == getattr(first, name) + getattr(second, name), name
    assert both.extras == {k: first.extras[k] + second.extras[k] for k in first.extras}
    assert (both.engine, both.query) == (first.engine, first.query)
    assert any(getattr(first, name) for name in _COUNT_FIELDS), "counted nothing"


def test_passing_the_same_profile_twice_sums_the_counts():
    g = generate_movies(20, seed=3)
    fg, db = g.freeze(), graph_to_oem(g)
    web = generate_web(30, seed=2)
    _sum_law(lambda p: rpq_nodes(fg, "Entry.Movie.Title", profile=p))
    _sum_law(lambda p: rpq_witnesses(g, "Entry._.Title", profile=p))
    _sum_law(lambda p: evaluate_query(parse_query(UNQL), {"db": g}, profile=p))
    _sum_law(lambda p: evaluate_lorel(parse_lorel(LOREL), db, profile=p))
    _sum_law(lambda p: lorel_bindings(parse_lorel(LOREL), db, profile=p))
    _sum_law(lambda p: find_value(fg, "Bogart", profile=p))
    _sum_law(lambda p: find_attribute_names(g, "Tit%", profile=p))
    _sum_law(
        lambda p: distributed_rpq(partition_graph(web, 3), "link*.keyword", profile=p)
    )


def test_a_composite_evaluation_does_not_count_sub_query_matches_as_answers():
    """UnQL's regex edges run ``rpq_nodes`` on the caller's profile: their
    work is charged, their matches are not the query's ``results``."""
    g = figure1()
    profile = QueryProfile()
    answer = unql(r"select \t where {Entry.Movie.Title: \t} in db", profile=profile, db=g)
    assert profile.engine == "unql"
    assert profile.results == answer.out_degree(answer.root) == 2
    assert profile.product_pairs > 0  # the sub-query's walk was charged


# -- the profile describes the run that answered -----------------------------------


def test_profiled_find_does_not_inflate_the_served_snapshot():
    """Regression: ``"profile": true`` on ``find`` used to scan ``edges_from``
    over every reachable node and leave one memoized ``Edge`` tuple per
    node pinned on the snapshot until the next commit."""
    graph = generate_movies(15, seed=4)
    service = QueryService(graph)
    harness = InProcessHarness(service)
    try:
        response = harness.run_one(
            {"id": 1, "op": "find", "query": "Title", "profile": True}
        )
        plain = harness.run_one({"id": 2, "op": "find", "query": "Title"})
    finally:
        harness.close()
    frozen = service.current_view().frozen
    assert response["status"] == "ok" and response["result"] == plain["result"]
    assert frozen._edge_cache == {}
    on_thawed = QueryProfile()
    find_value(frozen.thaw(), "Title", profile=on_thawed)
    assert to_json(response["profile"]) == to_json(on_thawed.as_dict())
    reachable = frozen.reachable()
    assert on_thawed.nodes_visited == len(reachable)
    assert on_thawed.edges_expanded == frozen.total_out_degree(reachable)


# -- the twins are gone, not aliased ------------------------------------------------


def test_no_twin_is_importable_from_any_package():
    suffixes = ("_profiled", "_partial", "_resilient")
    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name in dir(module):
            if name.endswith(suffixes) or name == "GroupCommit":
                offenders.append(f"{info.name}.{name}")
    assert not offenders
