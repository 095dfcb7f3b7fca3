"""The probe index against the scans it replaces.

* **value table** -- a bisect of :class:`~repro.index.probes.ValueTable`
  selects exactly the base labels that the per-label
  :func:`~repro.lorel.coerce.compare_values` test selects, for every
  operator, in both operand orders, over vocabularies with the awkward
  values of Lorel's coercion (``"nan"``, ``"inf"``, ``" 7 "``,
  ``"1_000"``, ``-0.0``, bools, int/float ties);
* **root paths** -- :meth:`~repro.index.probes.ProbeIndex.root_paths` are
  the paths forward BFS first discovery spells on the plain layout, and
  ``None`` exactly off the root's reachable set;
* **detachment** -- an index whose structures were carried to the next
  version answers its own version afterwards;
* **sources** -- the source :meth:`~repro.index.probes.ProbeIndex.labeled`
  reads off an edge's entry is the one ``Graph.edges()`` gives, on a
  cold freeze, a carried derivation and a decoded checkpoint.

That a carried index equals a cold build of the derived snapshot is in
``tests/storage/test_derived_views.py``, over its commit sequences.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browse.search import _shortest_paths_to_nodes
from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.core.labels import boolean, integer, real, string, sym
from repro.index.probes import FLIPPED, ValueTable, probes_for
from repro.lorel.coerce import compare_values
from repro.storage.mvcc import _decode_state, _encode_state

OPS = ("=", "!=", "<", "<=", ">", ">=")
TEXTS = ("nan", "inf", "-inf", " 7 ", "7", "7.0", "1_000", "1e3", "", "abc", "Abc", "0", "-0")
NUMBERS = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([-0.0, 0.0, 1.0, 7.0, 7.5, 1000.0, math.inf, -math.inf, math.nan, 2**60]),
)
LABELS = st.one_of(
    NUMBERS.map(lambda v: real(v) if isinstance(v, float) else integer(v)),
    st.sampled_from(TEXTS).map(string),
    st.booleans().map(boolean),
    st.sampled_from(("7", "nan", "a")).map(sym),
)
LITERALS = st.one_of(NUMBERS, st.sampled_from(TEXTS), st.booleans())


def scanned(vocabulary, op, literal, literal_first) -> "set[int]":
    return {
        lid
        for lid, label in enumerate(vocabulary)
        if label.is_base
        and (
            compare_values(literal, op, label.value)
            if literal_first
            else compare_values(label.value, op, literal)
        )
    }


@settings(max_examples=300, deadline=None)
@given(st.lists(LABELS, unique=True, max_size=14), LITERALS, st.integers(0, 14))
def test_value_table_probe_equals_the_per_label_scan(vocabulary, literal, cut):
    table = ValueTable(vocabulary)
    for op in OPS:
        for literal_first in (False, True):
            probed = table.compare(FLIPPED.get(op, op) if literal_first else op, literal)
            if probed is None:  # the per-label test keeps these
                assert op == "!=" or isinstance(literal, bool)
                continue
            assert len(probed) == len(set(probed))
            expected = scanned(vocabulary, op, literal, literal_first)
            assert set(probed) == expected, (op, literal_first)
    # interned one by one after a cold start, the table is the cold one
    grown = ValueTable(vocabulary[:cut])
    for lid in range(min(cut, len(vocabulary)), len(vocabulary)):
        grown.add(lid, vocabulary[lid])
    for space in ("numbers", "numeric", "strings"):
        cold, warm = getattr(table, space), getattr(grown, space)
        assert (cold.lids, repr(cold.keys)) == (warm.lids, repr(warm.keys))
    assert table.symbols == grown.symbols


@st.composite
def graphs(draw, gaps: bool = True) -> Graph:
    """Small rooted graphs with multi-edges, self-loops, cycles and
    unreachable nodes, sometimes (``gaps``) with gaps in the node ids."""
    g = Graph()
    skips = st.sampled_from((0, 0, 3) if gaps else (0,))
    nodes = [g.ensure_node(g._next_id + draw(skips)) for _ in range(draw(st.integers(1, 8)))]
    g.set_root(draw(st.sampled_from(nodes)))
    for _ in range(draw(st.integers(0, 18))):
        src, dst = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        g.add_edge(src, draw(st.sampled_from(("a", "b", "c"))), dst)
    return g


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_root_paths_are_forward_first_discovery(g):
    fg = freeze(g)
    probes = probes_for(fg)
    first_discovery = _shortest_paths_to_nodes(g, set(g.nodes()))
    assert probes.root_paths(g.nodes()) == {node: first_discovery.get(node) for node in g.nodes()}


def test_a_detached_index_answers_its_own_version():
    g = Graph()
    root = g.new_node()
    g.set_root(root)
    g.add_edge(root, "a", g.new_node())
    fg = freeze(g)
    held = probes_for(fg)
    lid = fg.label_index[sym("a")]
    before = (held.label_edges(lid), held.edges_into(1), list(held.values.symbols))
    edge = g.add_edge(root, "b", g.new_node())
    derived = fg.derive([edge.dst], [edge], root, 1)
    carried = held.advance(derived, [edge])
    assert carried.label_edges(derived.label_index[sym("b")]) == carried.edges_into(2) == [1]
    assert len(carried.values.symbols) == 2
    assert (held.label_edges(lid), held.edges_into(1), held.values.symbols) == before


def assert_sources_are_the_graphs(fg, g: Graph) -> None:
    """Every edge, its source read off its probe entry, is ``g``'s edge at
    the same index; per node and label, so are its in-edges."""
    probes = probes_for(fg)
    labels, label_ids, targets = fg.labels_seq, fg.label_ids, fg.targets
    hits = sorted(hit for lid in range(len(labels)) for hit in probes.labeled(lid))
    assert [i for i, _ in hits] == list(range(fg.num_edges))
    edges = list(g.edges())
    assert [(src, labels[label_ids[i]], targets[i]) for i, src in hits] == [
        (e.src, e.label, e.dst) for e in edges
    ]
    for node in g.nodes():
        for lid, label in enumerate(labels):
            into = sorted(probes.labeled(lid, node))
            assert [(edges[i].src, edges[i].label, edges[i].dst) for i, _ in into] == [
                (src, label, node) for _, src in into
            ]
            assert len(into) == sum(e.dst == node and e.label == label for e in edges)


@settings(max_examples=150, deadline=None)
@given(graphs(gaps=False), st.data())
def test_an_entry_names_the_source_the_graph_gives(g, data):
    fg = freeze(g)
    assert fg.index is None
    assert_sources_are_the_graphs(fg, g)
    probes_for(fg).values  # built, whatever the labels
    # a commit with a gap before its new nodes, carried from the built index
    more = data.draw(st.integers(0, 2))
    fresh = [g.ensure_node(g._next_id + 2)] + [g.new_node() for _ in range(more)]
    nodes = list(g.nodes())
    added = [
        g.add_edge(data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(("a", "d"))),
                   data.draw(st.sampled_from(nodes)))
        for _ in range(data.draw(st.integers(0, 6)))
    ]
    derived = fg.derive(fresh, added, g.root, 1)
    derived._ext["probes"] = probes_for(fg).advance(derived, added)
    assert derived.index is not None and probes_for(derived).built
    assert_sources_are_the_graphs(derived, g)
    opened, _ = _decode_state(bytes(_encode_state(derived, g._next_id, 1)[16:]), 1)
    assert_sources_are_the_graphs(opened, g)
