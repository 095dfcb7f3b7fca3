"""The view is the copy: every in-place reader against its materialized twin.

The served path reads one CSR snapshot in place -- Lorel through an
:class:`~repro.core.convert.OemView`, UnQL and ``find`` on the
:class:`~repro.core.frozen.FrozenGraph` itself -- where it used to read
a thawed :class:`~repro.core.graph.Graph` and a converted
:class:`~repro.core.oem.OemDatabase`.  These properties hold the two
ways of reading to the same answers on small gnarly graphs (cycles,
shared nodes, unreachable nodes, base-labeled edges in every position).

``graph_to_oem`` is itself defined as the materialized view now, so the
section-2 mapping is checked against an independent reference here: the
recursive conversion the library shipped before, kept as the oracle.
"""

import copy
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.browse import find_value, where_is
from repro.core.builder import from_obj, to_obj
from repro.core.convert import (
    DATA_MARKER,
    LABEL_MARKER,
    TREE_MARKER,
    OemView,
    graph_to_oem,
)
from repro.core.frozen import freeze
from repro.core.graph import Graph, GraphError
from repro.automata.regex import parse_path_regex
from repro.core.labels import label_of, string, sym
from repro.core.oem import OemDatabase, OemError
from repro.datasets import generate_movies
from repro.lorel import (
    LorelRuntimeError,
    evaluate_lorel,
    lorel,
    lorel_rows,
    parse_lorel,
)
from repro.lorel.evaluator import _Runner
from repro.obs import QueryProfile
from repro.obs.export import to_json
from repro.storage import AddEdge, AddNode, VersionedGraphStore
from repro.storage.wal import apply_delta
from repro.unql import evaluate_query, parse_query, unql

from .strategies import (
    _CMP_OPS,
    _LOREL_LITERALS,
    ATOMS,
    OEM_LABELS,
    graphs,
    lorel_queries,
    oem_values,
    unql_queries,
)


def reference_graph_to_oem(graph: Graph, name: str = "DB") -> OemDatabase:
    """Section 2's graph -> OEM mapping, written out recursively (the oracle)."""
    db = OemDatabase()
    memo: dict[int, int] = {}

    def conv(node: int) -> int:
        if node in memo:
            return memo[node]
        edges = graph.edges_from(node)
        if len(edges) == 1 and edges[0].label.is_base and not graph.out_degree(edges[0].dst):
            memo[node] = db.new_atomic(edges[0].label.value)  # the scalar {v: {}}
            return memo[node]
        oid = memo[node] = db.new_complex()
        for edge in edges:
            if edge.label.is_symbol:
                db.add_child(oid, str(edge.label.value), conv(edge.dst))
            elif graph.out_degree(edge.dst) == 0:
                db.add_child(oid, DATA_MARKER, db.new_atomic(edge.label.value))
            else:
                wrapper = db.new_complex()
                db.add_child(wrapper, LABEL_MARKER, db.new_atomic(edge.label.value))
                db.add_child(wrapper, TREE_MARKER, conv(edge.dst))
                db.add_child(oid, DATA_MARKER, wrapper)
        return oid

    db.set_name(name, conv(graph.root))
    return db


def assert_isomorphic(ours: OemDatabase, theirs: OemDatabase) -> None:
    """Same atoms, same child labels in the same order, same sharing."""
    assert set(ours.names) == set(theirs.names)
    pairs = {ours.lookup_name(n): theirs.lookup_name(n) for n in ours.names}
    stack = list(pairs.items())
    while stack:
        a, b = stack.pop()
        left, right = ours.get(a), theirs.get(b)
        assert left.atom == right.atom and type(left.atom) is type(right.atom)
        assert [lab for lab, _ in left.children] == [lab for lab, _ in right.children]
        for (_, child_a), (_, child_b) in zip(left.children, right.children):
            if child_a in pairs:
                assert pairs[child_a] == child_b  # sharing and cycles line up
            else:
                pairs[child_a] = child_b
                stack.append((child_a, child_b))
    assert len(set(pairs.values())) == len(pairs)  # a bijection ...
    assert set(pairs) == set(ours.oids())  # ... onto everything the view lists
    assert len(pairs) == len(ours) == len(theirs)


def same_state(g1, g2) -> bool:
    """Exact (id-level) equality of two graphs, either layout."""
    adj1 = {n: [(e.label, e.dst) for e in g1.edges_from(n)] for n in g1.nodes()}
    adj2 = {n: [(e.label, e.dst) for e in g2.edges_from(n)] for n in g2.nodes()}
    return adj1 == adj2 and g1.root == g2.root


@st.composite
def data_graphs(draw):
    """The Lorel strategies' record shape as a graph, then bent out of shape.

    The base is ``from_obj`` of what ``oem_databases`` loads (so
    ``lorel_queries`` and their comparisons find things to bind); on top
    come up to eight stray edges between arbitrary nodes, a third of
    them base-labeled -- sharing, cycles, data edges to a leaf among
    other edges, data edges with a subtree, scalars that stop being
    scalars, unreachable leftovers.
    """
    entries = draw(st.lists(oem_values(2), min_size=1, max_size=4))
    g = from_obj({"A": entries, "B": draw(oem_values(1))})
    nodes = sorted(g.nodes())
    for _ in range(draw(st.integers(0, 8))):
        src, dst = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        if draw(st.integers(0, 2)):
            g.add_edge(src, draw(st.sampled_from(OEM_LABELS)), dst)
        else:
            atom = draw(st.sampled_from(ATOMS))
            g.add_edge(src, string(atom) if isinstance(atom, str) else label_of(atom), dst)
    return g


@st.composite
def pushable_queries(draw):
    """One fixed-path clause and one ``path op literal`` conjunct on its alias:
    the shape whose binding the view answers by reverse walks, both ways.
    Paths are short and start at the record collection, so most bind."""
    step = st.sampled_from(OEM_LABELS)
    clause = ".".join(["DB.A", *draw(st.lists(step, max_size=1))])
    operand = ".".join(["x", *draw(st.lists(step, max_size=2 - clause.count(".")))])
    sides = [operand, draw(_LOREL_LITERALS)]
    if draw(st.booleans()):
        sides.reverse()
    return f"select x from {clause} x where {sides[0]} {draw(_CMP_OPS)} {sides[1]}"


def hand_cases() -> "dict[str, Graph]":
    """One graph per shape the mapping treats specially."""
    scalar = from_obj({"A": 7})  # A's target is the scalar node {7: {}}
    among = from_obj({"A": {"B": 1}})
    a = next(iter(among.successors(among.root)))
    among.add_edge(a, string("x"), among.new_node())  # data edge to a leaf, beside B
    subtree = from_obj({"A": {"B": 1}})
    a = next(iter(subtree.successors(subtree.root)))
    subtree.add_edge(subtree.root, 2.5, a)  # data edge whose target has children
    lone = Graph()
    lone.set_root(lone.new_node())
    lone.add_edge(lone.root, True, lone.new_node())  # the root itself is a scalar
    return {"scalar": scalar, "data-among": among, "data-subtree": subtree, "lone": lone}


@pytest.mark.parametrize("name", sorted(hand_cases()))
def test_hand_cases_map_like_the_reference(name):
    g = hand_cases()[name]
    view = OemView(freeze(g))
    assert_isomorphic(view, reference_graph_to_oem(g))
    assert_isomorphic(view, graph_to_oem(g))
    kinds = {
        "scalar": lambda: view.get(next(view.children(view.lookup_name("DB"), "A"))).atom == 7,
        "data-among": lambda: any(
            lab == DATA_MARKER and view.get(c).atom == "x"
            for o in view.oids()
            for lab, c in view.get(o).children
        ),
        "data-subtree": lambda: any(
            [lab for lab, _ in view.get(o).children] == [LABEL_MARKER, TREE_MARKER]
            for o in view.oids()
        ),
        "lone": lambda: view.get(view.lookup_name("DB")).atom is True,
    }
    assert kinds[name]()


@given(data_graphs())
def test_view_is_isomorphic_to_the_reference_copy(g):
    view = OemView(freeze(g))
    assert_isomorphic(view, reference_graph_to_oem(g))
    copy = graph_to_oem(g)
    assert_isomorphic(view, copy)
    # the copy renumbers monotonically: oid order is what Lorel rows sort by
    assert list(copy.oids()) == sorted(copy.oids())
    renumbered = dict(zip(view.oids(), copy.oids()))
    for oid, twin in renumbered.items():
        assert [renumbered[c] for _, c in view.get(oid).children] == [
            c for _, c in copy.get(twin).children
        ]


def test_view_is_read_only_and_typed_on_unknown_oids():
    view = OemView(freeze(from_obj({"A": 1})))
    with pytest.raises(OemError):
        view.new_complex()
    with pytest.raises(OemError):
        view.add_child(view.lookup_name("DB"), "B", view.lookup_name("DB"))
    for oid in (-1, 10**6):
        with pytest.raises(OemError):
            view.get(oid)


@given(data_graphs(), st.one_of(lorel_queries(), pushable_queries()), st.booleans())
def test_lorel_rows_on_the_view_equal_rows_on_the_copy(g, text, use_indexes):
    """Order-exact, with pushdown on and off (the view has its own indexes)."""
    try:
        expected = lorel_rows(lorel(text, graph_to_oem(g), use_indexes=use_indexes))
    except LorelRuntimeError as exc:
        with pytest.raises(LorelRuntimeError, match=str(exc)[:20]):
            lorel(text, OemView(freeze(g)), use_indexes=use_indexes)
        return
    view = OemView(freeze(g))
    assert lorel_rows(lorel(text, view, use_indexes=use_indexes)) == expected
    # and pushdown never changes an answer on the view itself
    assert lorel_rows(lorel(text, view, use_indexes=not use_indexes)) == expected


@given(data_graphs(), st.sampled_from(ATOMS))
def test_where_is_on_the_snapshot(g, value):
    assert where_is(freeze(g), value) == where_is(g, value)


@given(st.one_of(graphs(), data_graphs()), st.data())
def test_subgraph_of_the_snapshot(g, data):
    node = data.draw(st.sampled_from(sorted(g.nodes())))
    assert same_state(freeze(g).subgraph(node), g.subgraph(node))
    with pytest.raises(GraphError):
        freeze(g).subgraph(10**6)


@given(graphs(), unql_queries())
def test_unql_on_the_snapshot(g, text):
    """Same answer graph, id for id -- hence the same ``to_obj`` where it has one."""
    on_graph, on_snapshot = unql(text, db=g), unql(text, db=freeze(g))
    assert same_state(on_snapshot, on_graph)
    try:
        expected = to_obj(on_graph)
    except ValueError:  # a cyclic answer has no JSON form
        return
    assert to_obj(on_snapshot) == expected


def test_profiled_twins_count_the_same_in_place():
    """``"profile": true`` requests read the snapshot too: no count may move."""
    g = generate_movies(30, seed=11)
    fg = freeze(g)
    for text in (
        "select t from DB.Entry.Movie.Title t",
        "select m.Title from DB.Entry.Movie m where m.Year < 1960",
    ):
        query = parse_lorel(text)
        in_place, on_copy = QueryProfile(query=text), QueryProfile(query=text)
        evaluate_lorel(query, OemView(fg), profile=in_place)
        evaluate_lorel(query, graph_to_oem(g), profile=on_copy)
        assert to_json(in_place.as_dict()) == to_json(on_copy.as_dict())
    text = r"select \n where {Entry.Movie.Cast: \n} in db"
    in_place, on_copy = QueryProfile(query=text), QueryProfile(query=text)
    evaluate_query(parse_query(text), {"db": fg}, profile=in_place)
    evaluate_query(parse_query(text), {"db": g}, profile=on_copy)
    assert to_json(in_place.as_dict()) == to_json(on_copy.as_dict())
    in_place, on_copy = QueryProfile(), QueryProfile()
    find_value(fg, "Bogart", profile=in_place)
    find_value(g, "Bogart", profile=on_copy)
    assert to_json(in_place.as_dict()) == to_json(on_copy.as_dict())


#: one commit: (ids skipped before its new nodes, new nodes, edges as
#: (src ref, label, dst ref) over old nodes + new ones, modulo their count)
DATA_COMMITS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 2),
        st.lists(
            st.tuples(
                st.integers(0, 40),
                st.one_of(
                    st.sampled_from(OEM_LABELS).map(sym),
                    st.sampled_from(ATOMS).map(
                        lambda a: string(a) if isinstance(a, str) else label_of(a)
                    ),
                ),
                st.integers(0, 40),
            ),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=3,
)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data_graphs(), DATA_COMMITS, st.one_of(lorel_queries(), pushable_queries()), st.booleans())
def test_lorel_rows_on_a_derived_snapshot_equal_rows_on_the_copy(g, commits, text, use_indexes):
    """The store derives each version from the last; the first commit
    adds a node past an id skip, so the derived snapshot is indexed.  Its view answers as
    the copy of the test's own shadow graph does, pushdown on and off."""
    shadow = copy.deepcopy(g)
    with tempfile.TemporaryDirectory() as tmp:
        with VersionedGraphStore.create(Path(tmp) / "s", g, durable=False) as store:
            store.view()
            for i, (skip, fresh, edges) in enumerate(commits):
                first = shadow._next_id + skip + (i == 0)
                new = list(range(first, first + fresh + (i == 0)))
                nodes = [*shadow.nodes(), *new]
                deltas: list = [AddNode(node) for node in new]
                for src, label, dst in edges:
                    deltas.append(AddEdge(nodes[src % len(nodes)], label, nodes[dst % len(nodes)]))
                store.commit(deltas)
                for delta in deltas:
                    apply_delta(shadow, delta)
            view = store.view()
            assert view.frozen.index is not None
            try:
                expected = lorel_rows(lorel(text, graph_to_oem(shadow), use_indexes=use_indexes))
            except LorelRuntimeError as exc:
                with pytest.raises(LorelRuntimeError, match=str(exc)[:20]):
                    lorel(text, view.oem, use_indexes=use_indexes)
                return
            assert lorel_rows(lorel(text, view.oem, use_indexes=use_indexes)) == expected
            assert lorel_rows(lorel(text, view.oem, use_indexes=not use_indexes)) == expected


@pytest.mark.parametrize(
    "guard, on_snapshot",
    [
        ("A", True),
        ("A%", True),
        ("(A|B)*", True),
        ("_", False),
        ("#", False),
        ("!A", False),
        ("<symbol>", False),
        ("%", False),  # matches the markers
        ("`@data`", False),
        ('"x"', False),
        ("1", False),
    ],
)
def test_route_rule(guard, on_snapshot):
    """A path walks the snapshot's arrays iff every guard matches symbols
    only and no marker; either way the rows are the copy's."""
    g = from_obj({"A": [{"B": 1, "AB": "x"}, 2], "B": {"A": "y"}})
    a = next(iter(g.successors(g.root)))
    g.add_edge(g.root, string("x"), a)  # a data edge whose target has children
    view = OemView(freeze(g))
    _, walked = _Runner(view, "DB").plan_of(parse_path_regex(guard), guard)
    assert (walked is view.fg) is on_snapshot
    assert walked is view or on_snapshot
    # a profiled run counts OEM children, so it always reads the view
    _, profiled = _Runner(view, "DB", QueryProfile()).plan_of(parse_path_regex(guard), guard)
    assert profiled is view
    for text in (f"select x from DB.{guard} x", f"select y from DB.#.(`@data`)? x, x.{guard} y"):
        assert lorel_rows(lorel(text, view)) == lorel_rows(lorel(text, graph_to_oem(g)))


def test_template_after_a_commit_decodes_nothing():
    """The served template on a derived snapshot: rows from the arrays,
    no OEM object decoded, no synthetic oid numbered."""
    template = "select m.Title from DB.Entry.Movie m where m.Year < 1925"
    g = generate_movies(200, seed=7)
    shadow = copy.deepcopy(g)
    with tempfile.TemporaryDirectory() as tmp:
        with VersionedGraphStore.create(Path(tmp) / "s", g, durable=False) as store:
            store.view()
            node = shadow._next_id
            deltas = [AddNode(node), AddEdge(shadow.root, sym("Marker"), node)]
            store.commit(deltas)
            for delta in deltas:
                apply_delta(shadow, delta)
            view = store.view()
            rows = lorel_rows(lorel(template, view.oem))
            assert rows and rows == lorel_rows(lorel(template, graph_to_oem(shadow)))
            objects = view.oem._objects
            assert len(objects) == 0
            assert objects._first_synthetic is None
