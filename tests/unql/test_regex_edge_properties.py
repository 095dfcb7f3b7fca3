r"""Property: UnQL regex edges answer what naive path enumeration does.

Every regex edge of an UnQL pattern walks the product kernel from the
node it is matched at -- the source's root for a root-level member, a
bound tree variable's node for ``{...} in \s``.  On random acyclic graphs
(where enumerating every path up to the node count is exact) both kinds
of edge must bind exactly the targets of :func:`naive_rpq`, on a plain
``Graph`` and on a snapshot derived from an older version.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.product import naive_rpq
from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.unql import parse_query
from repro.unql.evaluator import query_bindings

#: exact labels, alternation, closures, the non-exact guards (``#``, ``_``,
#: ``!a``, globs) and a repeated wildcard ending on an exact label
PATTERNS = [
    "a",
    "a.b",
    "a*",
    "(a|b)*",
    "a.b*",
    "#.a",
    "_.b",
    "!a",
    "(a.b)+",
    "%a",
    "_*.c",
    "(!a)*.b",
]


@st.composite
def acyclic_graphs(draw):
    """A rooted DAG (edges run from lower to higher node ids), and where to
    cut it into a base version and a later commit."""
    n = draw(st.integers(2, 6))
    g = Graph()
    nodes = [g.new_node() for _ in range(n)]
    g.set_root(nodes[0])
    for _ in range(draw(st.integers(1, 10))):
        src = draw(st.integers(0, n - 2))
        dst = draw(st.integers(src + 1, n - 1))
        g.add_edge(nodes[src], draw(st.sampled_from(["a", "b", "c", "ca"])), nodes[dst])
    return g, draw(st.integers(1, n)), draw(st.integers(0, 10))


def derived_from_base(g, keep, cut):
    """``g`` as a snapshot derived from a base version holding its first
    ``keep`` nodes and the first ``cut`` edges among them."""
    nodes = list(g.nodes())
    base = Graph()
    for node in nodes[:keep]:
        base.ensure_node(node)
    base.set_root(g.root)
    inside = [e for e in g.edges() if base.has_node(e.src) and base.has_node(e.dst)]
    for edge in inside[:cut]:
        base.add_edge(edge.src, edge.label, edge.dst)
    tail = [e for e in g.edges() if e not in inside[:cut]]
    return freeze(base).derive(nodes[keep:], tail, g.root, 1)


def bound_targets(text, source):
    return query_bindings(parse_query(text), {"db": source})


@given(acyclic_graphs(), st.sampled_from(PATTERNS))
@settings(max_examples=150, deadline=None)
def test_prop_regex_edges_bind_the_naive_targets(gc, pattern):
    g, keep, cut = gc
    n = g.num_nodes
    from_root = naive_rpq(g, pattern, n)
    below = {}
    for edge in g.edges_from(g.root):
        found = naive_rpq(g, pattern, n, start=edge.dst)
        if found:
            below[edge.dst] = found
    for source in (g, derived_from_base(g, keep, cut)):
        rooted = bound_targets(rf"select \t where {{{pattern}: \t}} in db", source)
        assert {env["t"] for env in rooted} == from_root
        nested = bound_targets(
            rf"select \t where {{\l: \s}} in db, {{{pattern}: \t}} in \s", source
        )
        by_origin = {}
        for env in nested:
            by_origin.setdefault(env["s"], set()).add(env["t"])
        assert by_origin == below
