"""The differential harness: native engines vs the SQL backend.

Each property draws one random database and one random query, runs both
engines, and asserts agreement.  The contract under test is the one the
whole :mod:`repro.sqlbackend` package is built around:

* a query the compiler accepts answers **identically** to the native
  evaluator -- same node set for RPQ, same rows *in the same order* for
  Lorel, same constructed graph for UnQL;
* a query the compiler refuses raises :class:`NotCompilable` (never a
  wrong answer), and the native engine still answers it -- the fallback
  is total.

Answers are compared with bag semantics where the native contract is a
set (RPQ node sets, UnQL graphs canonicalized through ``to_obj``) and
with exact ordered equality for Lorel, whose binding-enumeration order
is part of the native contract the SQL engine reproduces.
"""

from hypothesis import event, given

from repro.automata.product import rpq_nodes
from repro.core.convert import graph_to_oem
from repro.core.frozen import freeze
from repro.lorel import lorel, lorel_rows, parse_lorel
from repro.sqlbackend import (
    NotCompilable,
    SqlBackend,
    lorel_sql,
    unql_sql,
)
from repro.unql import evaluate_query, parse_query

from .strategies import (
    graphs,
    lorel_queries,
    oem_databases,
    rpq_patterns,
    unql_queries,
)


@given(graphs(), rpq_patterns())
def test_rpq_differential(g, pattern):
    """SQL RPQ answers equal the product-automaton kernel, or refuse."""
    fg = freeze(g)
    native = rpq_nodes(fg, pattern)
    backend = SqlBackend(fg)
    try:
        via_sql = backend.rpq_nodes(pattern)
    except NotCompilable as exc:
        event(f"not-compilable: {exc.reason}")
        assert isinstance(native, set)  # the fallback answer exists
        return
    event(f"plan: {backend.compile(pattern).kind}")
    assert via_sql == native


@given(oem_databases(), lorel_queries())
def test_lorel_differential(db, text):
    """SQL Lorel rows equal the native evaluator's, order included."""
    native = lorel_rows(lorel(text, db))
    try:
        via_sql = lorel_rows(lorel_sql(text, db))
    except NotCompilable as exc:
        event(f"not-compilable: {exc.reason}")
        return
    event("compiled")
    assert via_sql == native


@given(oem_databases(), lorel_queries())
def test_lorel_bindings_order(db, text):
    """SQL binding enumeration is the native lexicographic order."""
    from repro.lorel import lorel_bindings
    from repro.sqlbackend import lorel_sql_backend_for

    query = parse_lorel(text)
    native = lorel_bindings(query, db)
    backend = lorel_sql_backend_for(db)
    try:
        via_sql = backend.bindings(query)
    except NotCompilable as exc:
        event(f"not-compilable: {exc.reason}")
        return
    aliases = sorted(native[0]) if native else []
    assert [{a: env[a] for a in aliases} for env in via_sql] == [
        {a: env[a] for a in aliases} for env in native
    ]


def canonical(graph):
    """A cycle-safe, order-insensitive rendering of an answer graph.

    Children are compared as sorted multisets of ``(label, subtree)``
    pairs; a back-edge to a node on the current path renders as a
    marker, so cyclic answers (which ``to_obj`` refuses) compare fine.
    """

    def walk(node, on_path):
        if node in on_path:
            return "<cycle>"
        deeper = on_path | {node}
        return tuple(
            sorted(
                (
                    (repr(edge.label), walk(edge.dst, deeper))
                    for edge in graph.edges_from(node)
                ),
                key=repr,
            )
        )

    return walk(graph.root, frozenset())


@given(graphs(), unql_queries())
def test_unql_differential(g, text):
    """SQL-routed UnQL constructs the same answer graph as native."""
    query = parse_query(text)
    sources = {"db": g, "DB": g}
    native = canonical(evaluate_query(query, sources))
    via_sql = canonical(unql_sql(query, sources))
    assert via_sql == native


@given(graphs(), lorel_queries())
def test_lorel_differential_on_graph_views(g, text):
    """Lorel agreement holds on OEM views of arbitrary graphs too.

    ``graph_to_oem`` produces cyclic, shared-subobject databases the
    ``from_obj`` strategy cannot -- the shapes where binding enumeration
    and closure CTEs are most likely to diverge.
    """
    db = graph_to_oem(g)
    native = lorel_rows(lorel(text, db))
    try:
        via_sql = lorel_rows(lorel_sql(text, db))
    except NotCompilable as exc:
        event(f"not-compilable: {exc.reason}")
        return
    assert via_sql == native
