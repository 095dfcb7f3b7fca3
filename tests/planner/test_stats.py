"""Tests for :class:`repro.planner.GraphStatistics` and the
statistics-driven Lorel clause reordering it feeds.

The estimator is only ever used to *rank* clauses, so the tests pin the
orderings that matter (absent < rare < common < wildcard < star) and the
exact counts the frequencies are built from -- plus the invariant that
reordering under any cost model never changes a Lorel answer.
"""

from repro.automata.regex import parse_path_regex
from repro.core.builder import from_obj
from repro.core.frozen import freeze
from repro.core.labels import integer, string, sym
from repro.core.oem import OemDatabase
from repro.lorel import lorel, lorel_rows, parse_lorel, reorder_from_clauses
from repro.lorel.optimizer import clause_cost
from repro.planner import GraphStatistics
from repro.sqlbackend import lorel_sql

DATA = {
    "Entry": [
        {"Movie": {"Title": "Casablanca", "Year": 1942}},
        {"Movie": {"Title": "Heat", "Year": 1995}},
        {"Movie": {"Title": "Ran", "Year": 1985}},
        {"TVShow": {"Title": "Twin Peaks"}},
    ]
}


def stats_of(obj) -> GraphStatistics:
    return GraphStatistics.from_frozen(freeze(from_obj(obj)))


def test_from_frozen_counts_every_edge_label():
    stats = stats_of(DATA)
    g = from_obj(DATA)
    assert stats.num_nodes == g.num_nodes
    assert stats.num_edges == g.num_edges
    assert stats.count(sym("Movie")) == 3
    assert stats.count(sym("TVShow")) == 1
    assert stats.count(sym("Title")) == 4
    assert stats.count(sym("Nope")) == 0
    assert stats.count(string("Casablanca")) == 1
    assert sum(stats.label_counts.values()) == g.num_edges


def test_from_oem_counts_symbols_and_values():
    db = OemDatabase.from_obj(DATA)
    stats = GraphStatistics.from_oem(db)
    assert stats.count(sym("Movie")) == 3
    assert stats.count(sym("Year")) == 3
    # atoms land in value_counts, not label_counts
    assert stats.count(string("Heat")) == 0
    assert stats.value_counts[string("Heat")] == 1
    assert stats.value_counts[integer(1942)] == 1
    assert 0.0 < stats.selectivity(integer(1942)) < 1.0
    assert stats.selectivity(string("Nope")) == 0.0


def test_matching_count_handles_globs_and_negation():
    stats = stats_of(DATA)
    movie = parse_path_regex("Movie")
    anything = parse_path_regex("_")
    not_movie = parse_path_regex("!Movie")
    assert stats.matching_count(movie.predicate) == 3
    assert stats.matching_count(anything.predicate) == stats.num_edges
    assert (
        stats.matching_count(not_movie.predicate)
        == stats.num_edges - 3
    )


def test_cardinality_orders_absent_rare_common_wildcard_star():
    stats = stats_of(DATA)
    absent = stats.cardinality(parse_path_regex("Nope"))
    rare = stats.cardinality(parse_path_regex("TVShow"))
    common = stats.cardinality(parse_path_regex("Title"))
    wildcard = stats.cardinality(parse_path_regex("_"))
    star = stats.cardinality(parse_path_regex("#"))  # `#` is the any-path closure
    assert absent == 0.0
    assert absent < rare < common < wildcard < star


def test_cardinality_shapes():
    stats = stats_of(DATA)
    concat = stats.cardinality(parse_path_regex("Entry.Movie"))
    assert concat == stats.count(sym("Entry")) * 3 / stats.num_edges
    alt = stats.cardinality(parse_path_regex("(Movie|TVShow)"))
    assert alt == 4.0
    opt = stats.cardinality(parse_path_regex("Movie?"))
    assert opt == 1.0 + 3.0
    assert stats.cardinality(None) == 1.0


def test_clause_cost_uses_stats_when_given():
    stats = stats_of(DATA)
    path = parse_path_regex("TVShow")
    assert clause_cost(path) == 1.0  # shape heuristic: exact step
    assert clause_cost(path, stats) == 1.0  # frequency: one TVShow edge
    assert clause_cost(parse_path_regex("Movie"), stats) == 3.0
    assert clause_cost(parse_path_regex("Nope"), stats) == 0.0


def test_stats_reorder_puts_rare_clause_first_and_keeps_answers():
    db = OemDatabase.from_obj(DATA)
    stats = GraphStatistics.from_oem(db)
    text = (
        "select t.Title, s.Title from DB.Entry.Movie t, DB.Entry.TVShow s"
    )
    query = parse_lorel(text)
    # the shape heuristic ties (both clauses are 3 exact steps) and keeps
    # the given order; frequencies see TVShow (1) < Movie (3) and flip it
    assert [c.alias for c in reorder_from_clauses(query).from_clauses] == ["t", "s"]
    reordered = reorder_from_clauses(query, stats=stats)
    assert [c.alias for c in reordered.from_clauses] == ["s", "t"]
    assert sorted(
        map(repr, lorel_rows(lorel(text, db, use_indexes=True)))
    ) == sorted(map(repr, lorel_rows(lorel(text, db, use_indexes=False, optimize=False))))


def test_reordered_rows_come_out_in_written_order():
    """Statistics flip the clauses (TVShow 2 < Movie 3); the rows keep the
    written nested-loop order on both engines, under every flag."""
    data = {"Entry": [*DATA["Entry"], {"TVShow": {"Title": "Fargo"}}]}
    db = OemDatabase.from_obj(data)
    text = "select t.Title, s.Title from DB.Entry.Movie t, DB.Entry.TVShow s"
    reordered = reorder_from_clauses(parse_lorel(text), stats=GraphStatistics.from_oem(db))
    assert [c.alias for c in reordered.from_clauses] == ["s", "t"]
    written = lorel_rows(lorel(text, db, use_indexes=False, optimize=False))
    assert [row["Title"][0] for row in written] == [
        "Casablanca", "Casablanca", "Heat", "Heat", "Ran", "Ran"
    ]
    for use_indexes in (True, False):
        assert lorel_rows(lorel(text, db, use_indexes=use_indexes)) == written
    assert lorel_rows(lorel_sql(text, db)) == written


def test_as_dict_reports_the_counts():
    stats = stats_of(DATA)
    g = from_obj(DATA)
    assert stats.as_dict() == {
        "nodes": g.num_nodes,
        "edges": g.num_edges,
        "distinct_labels": len(stats.label_counts),
        "distinct_values": len(stats.value_counts),
    }
