"""Units for the SQL backend's load, facade, and routing pieces."""

import pytest

from repro.automata.product import rpq_nodes
from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.core.oem import OemDatabase
from repro.datasets import figure1
from repro.datasets.relational_data import generate_catalog
from repro.lorel import lorel, lorel_rows, parse_lorel
from repro.sqlbackend import (
    NotCompilable,
    SqlBackend,
    lorel_sql_backend_for,
    sql_backend_for,
    unql_sql,
)
from repro.unql import evaluate_query, parse_query


def _record_graph():
    """root -A-> coll; coll with two member symbols sharing one shape."""
    from repro.core.labels import label_of, sym

    g = Graph()
    root = g.new_node()
    g.set_root(root)
    coll = g.new_node()
    g.add_edge(root, sym("A"), coll)
    for member, value in (("m1", "one"), ("m1", "uno"), ("m2", "two")):
        rec = g.new_node()
        g.add_edge(coll, sym(member), rec)
        vnode = g.new_node()
        g.add_edge(rec, sym("x"), vnode)
        leaf = g.new_node()
        g.add_edge(vnode, label_of(value), leaf)
    return g


def _assert_chains_match_kernel(graph, patterns):
    fg = freeze(graph)
    backend = sql_backend_for(fg)
    for pattern in patterns:
        assert backend.compile(pattern).kind == "chain"
        assert backend.rpq_nodes(pattern) == rpq_nodes(fg, pattern)


def test_record_path_compiles_to_a_chain_that_matches_the_kernel():
    """A fixed path through one of two member symbols is a self-join
    chain that answers exactly like the kernel."""
    _assert_chains_match_kernel(_record_graph(), ("A.m1.x",))


def test_relational_sample_paths_compile_to_chains():
    """Fixed paths through the record-shaped bridge dataset are
    self-join chains that answer exactly like the kernel."""
    from repro.relational.encode import relational_to_graph

    _assert_chains_match_kernel(
        relational_to_graph(generate_catalog(20, 10, seed=2)),
        ("Movies.tuple.title", "Casts.tuple.actor"),
    )


class TestSqlBackendFacade:
    def test_plan_cache_and_counters(self):
        backend = SqlBackend(freeze(figure1()))
        backend.rpq_nodes("Entry.Movie.Title")
        backend.rpq_nodes("Entry.Movie.Title")
        assert backend.counters["compiles"] == 1
        assert backend.counters["plan_hits"] == 1
        assert backend.counters["executes"] == 2
        assert "SELECT" in backend.last_sql

    def test_snapshot_memoization(self):
        g = figure1()
        fg = freeze(g)
        assert sql_backend_for(fg) is sql_backend_for(fg)


class TestLorelBackendStaleness:
    def test_rebuilt_on_mutation(self):
        db = OemDatabase.from_obj({"A": [{"v": 1}]})
        backend = lorel_sql_backend_for(db)
        assert lorel_sql_backend_for(db) is backend
        new_atom = db.new_atomic(2)
        db.add_child(db.lookup_name("DB"), "A", new_atom)
        fresh = lorel_sql_backend_for(db)
        assert fresh is not backend
        assert backend.is_stale() and not fresh.is_stale()

    def test_stale_answer_would_differ(self):
        """The rebuild matters: the old image misses the new child."""
        db = OemDatabase.from_obj({"A": [1]})
        old = lorel_sql_backend_for(db)
        db.add_child(db.lookup_name("DB"), "A", db.new_atomic(2))
        query = parse_lorel("select m from DB.A m")
        native = lorel_rows(lorel("select m from DB.A m", db))
        assert len(lorel_sql_backend_for(db).bindings(query)) == len(native)
        assert len(old.bindings(query)) != len(native)


class TestUnqlRouting:
    def test_per_member_fallback(self):
        """One member over the cap leaves that member native, not wrong."""
        g = Graph()
        root = g.new_node()
        g.set_root(root)
        hub = g.new_node()
        g.add_edge(root, "q", hub)
        for i in range(600):
            g.add_edge(root, f"x{i:04d}", hub)
        text = r"select {a: \t, b: \u} where {q: \t, x%: \u} in db"
        query = parse_query(text)
        fg = freeze(g)
        sources = {"db": fg, "DB": fg}
        with pytest.raises(NotCompilable):
            sql_backend_for(fg).compile("x%")
        native = evaluate_query(query, sources)
        routed = unql_sql(query, sources)
        assert routed.num_edges == native.num_edges

    def test_variable_source_stays_native(self):
        """A var-sourced second binding is untouched by the rewrite."""
        g = Graph()
        root, mid, leaf = g.new_node(), g.new_node(), g.new_node()
        g.set_root(root)
        g.add_edge(root, "a", mid)
        g.add_edge(mid, "b", leaf)
        query = parse_query(r"select \u where {a: \t} in db, {b: \u} in \t")
        sources = {"db": g}
        native = evaluate_query(query, sources)
        routed = unql_sql(query, sources)
        assert routed.num_edges == native.num_edges
