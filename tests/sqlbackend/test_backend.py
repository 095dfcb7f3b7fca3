"""Units for the SQL backend's load, facade, and routing pieces."""

import pytest

from repro.automata.product import rpq_nodes
from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.core.oem import OemDatabase
from repro.datasets import figure1
from repro.datasets.relational_data import generate_catalog
from repro.lorel import lorel, lorel_rows, parse_lorel
from repro.schema.dataguide import DataGuide
from repro.sqlbackend import (
    NotCompilable,
    SqlBackend,
    connect,
    encode_wide,
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


class TestWideEncoding:
    def test_member_column_separates_symbols(self):
        """Two member symbols on one collection must not conflate.

        Regression for the encoding that keyed ``wide_member`` by
        collection alone: a ``m1`` query would have returned ``m2``'s
        records too.
        """
        conn = connect()
        encode_wide(conn, freeze(_record_graph()))
        m1 = conn.execute(
            "SELECT COUNT(*) FROM wide_member WHERE member = 'm1'"
        ).fetchone()[0]
        m2 = conn.execute(
            "SELECT COUNT(*) FROM wide_member WHERE member = 'm2'"
        ).fetchone()[0]
        assert (m1, m2) == (2, 1)

    def test_wide_plan_differential(self):
        """A guide-backed wide plan answers exactly like the kernel."""
        fg = freeze(_record_graph())
        backend = SqlBackend(fg, guide=DataGuide(fg))
        plan = backend.compile("A.m1.x")
        assert plan.kind == "wide"
        assert backend.rpq_nodes("A.m1.x") == rpq_nodes(fg, "A.m1.x")

    def test_wide_plan_on_relational_sample(self):
        """The fully record-shaped bridge dataset compiles wide."""
        from repro.relational.encode import relational_to_graph

        fg = freeze(relational_to_graph(generate_catalog(20, 10, seed=2)))
        backend = SqlBackend(fg, guide=DataGuide(fg))
        for pattern in ("Movies.tuple.title", "Casts.tuple.actor"):
            assert backend.compile(pattern).kind == "wide"
            assert backend.rpq_nodes(pattern) == rpq_nodes(fg, pattern)


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
