"""Derived snapshots: version n+1 built from version n plus its commits.

After the first read, the store publishes each version by
:meth:`~repro.core.frozen.FrozenGraph.derive` from the snapshot it
retires, and carries that snapshot's probe index forward; its SQL image
is dropped and the next version builds its own.  The contract:

* **equivalence** -- a derived view answers every read API call and
  every engine exactly as a cold ``freeze`` of the live graph does
  (labels compared as :class:`Label`\\ s: derived label ids may be a
  renaming of the cold ones), on dense stores and on stores whose ids
  have gaps (the indexed layout, entered by a base or by a commit);
* **copy-on-write** -- a view pinned before later derivations dumps and
  answers byte-identically afterwards;
* **SQL isolation** -- a backend held from an old version never serves
  a later version's rows;
* **probe index** -- the carried reverse adjacency, per-label edge lists
  and value table hold what a cold build of the same graph holds;
* **kernel** -- over the target-bucket layout, the grouped CSR walk
  still equals the ``edges_from`` walk, witnesses included.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata import PLAN_METRICS, rpq_nodes
from repro.automata.product import rpq_witnesses
from repro.browse import where_is
from repro.cli import main as cli_main
from repro.core.convert import OemView
from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.core.labels import integer, string, sym
from repro.index.probes import ProbeIndex, probes_for
from repro.lorel import lorel, lorel_rows
from repro.obs import QueryProfile
from repro.service.server import QueryService
from repro.sqlbackend import NotCompilable, SqlBackend, sql_backend_for
from repro.storage import STORAGE_METRICS, AddEdge, AddNode, SetRoot, VersionedGraphStore
from repro.storage.wal import apply_delta
from repro.unql import unql

#: base labels draw from the first four; commits may also intern the rest
OLD_LABELS = (sym("a"), sym("b"), string("x"), integer(1))
NEW_LABELS = (sym("c"), string("y"), integer(2))
LABELS = OLD_LABELS + NEW_LABELS

PATTERNS = st.sampled_from(
    ["a", "a.b", "(a|c)*", "_*.\"x\"", "a.(b|c)*.1", "#", "c", "_.c", "(!a)*", "b+.\"y\""]
)
LOREL = (
    "select x from DB.a x",
    "select y from DB.a x, x.b y",
    "select x from DB.#.c x",
)
UNQL = (r"select \t where {a: \t} in db", r"select {r: \t} where {a.c: \t} in db")
VALUES = ("x", "y", 1, 2)


#: ids a writer skips before its next node: mostly none, so most stores
#: stay dense; a skip makes a store (and every snapshot after) indexed
SKIPS = st.sampled_from((0, 0, 0, 0, 2))


@st.composite
def bases(draw) -> Graph:
    g = Graph()
    nodes: list[int] = []
    for _ in range(draw(st.integers(1, 6))):
        nodes.append(g.ensure_node(g._next_id + draw(SKIPS)))
    g.set_root(nodes[0])
    for _ in range(draw(st.integers(0, 10))):
        g.add_edge(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from(OLD_LABELS)),
            draw(st.sampled_from(nodes)),
        )
    return g


#: one commit: ``(new nodes, [(src ref, label, dst ref)], reroot ref | None,
#: read after it, fold after it, ids skipped first)``; a ref indexes (old
#: nodes + this commit's new ones) modulo their count
COMMITS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.lists(
            st.tuples(st.integers(0, 50), st.sampled_from(LABELS), st.integers(0, 50)),
            max_size=5,
        ),
        st.one_of(st.none(), st.integers(0, 50)),
        st.booleans(),
        st.booleans(),
        SKIPS,
    ),
    min_size=1,
    max_size=6,
)


def commit_both(store: VersionedGraphStore, shadow: Graph, deltas: list) -> None:
    """Commit ``deltas`` to the store and apply them to ``shadow``, the
    test's own reference :class:`Graph` of what the store holds."""
    store.commit(deltas)
    for delta in deltas:
        apply_delta(shadow, delta)


def apply_commit(store: VersionedGraphStore, shadow: Graph, commit) -> None:
    fresh, edges, reroot, _, _, skip = commit
    first = shadow._next_id + skip
    new = list(range(first, first + fresh))
    nodes = [*shadow.nodes(), *new]
    deltas: list = [AddNode(node) for node in new]
    for src, label, dst in edges:
        deltas.append(AddEdge(nodes[src % len(nodes)], label, nodes[dst % len(nodes)]))
    if reroot is not None:
        deltas.append(SetRoot(nodes[reroot % len(nodes)]))
    commit_both(store, shadow, deltas)


def _canon(value):
    """Sets as sorted lists of reprs, so a dump compares (and prints) exactly."""
    if isinstance(value, (set, frozenset)):
        return sorted(map(repr, value))
    return value


def dump(fg) -> str:
    """The full read API of a snapshot, labels as Labels."""
    nodes = list(fg.nodes())
    out = {
        "nodes": nodes,
        "counts": (fg.num_nodes, fg.num_edges),
        "root": fg.root if fg.has_root else None,
        "all_labels": _canon(fg.all_labels()),
        "edges_with_label": {repr(lab): fg.edges_with_label(lab) for lab in LABELS},
    }
    for node in nodes:
        out[f"edges_from {node}"] = fg.edges_from(node)
        out[f"labels_from {node}"] = _canon(fg.labels_from(node))
        out[f"reachable {node}"] = _canon(fg.reachable(node))
        for lab in LABELS:
            out[f"successors {node} {lab!r}"] = list(fg.successors(node, lab))
    if fg.has_root:
        out["bfs_edges"] = list(fg.bfs_edges())
        out["reachable"] = _canon(fg.reachable())
    return repr(out)


def adjacency(g: Graph) -> list:
    """A constructed graph as written (to_obj refuses cyclic answers)."""
    return [g.root, *((n, g.edges_from(n)) for n in g.nodes())]


def answers(fg, patterns) -> str:
    """Every engine's answers on ``fg``: kernel, Lorel, UnQL, find."""
    out: dict = {"rpq": [sorted(rpq_nodes(fg, p)) for p in patterns]}
    if fg.has_root:
        oem = OemView(fg)
        out["lorel"] = [lorel_rows(lorel(q, oem)) for q in LOREL]
        out["unql"] = [adjacency(unql(q, db=fg)) for q in UNQL]
        out["find"] = [where_is(fg, value) for value in VALUES]
    return repr(out)


def sql_answers(backend: SqlBackend, patterns) -> list:
    out = []
    for pattern in patterns:
        try:
            out.append(sorted(backend.rpq_nodes(pattern)))
        except NotCompilable:
            out.append(None)
    return out


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bases(), COMMITS, st.lists(PATTERNS, min_size=1, max_size=3))
def test_derived_views_equal_cold_freeze(base, commits, patterns):
    shadow = copy.deepcopy(base)
    with tempfile.TemporaryDirectory() as tmp:
        with VersionedGraphStore.create(Path(tmp) / "s", base, durable=False) as store:
            pinned = store.view()
            held = sql_backend_for(pinned.frozen)  # version 0's own image
            pinned_dump = dump(pinned.frozen)
            pinned_answers = answers(pinned.frozen, patterns)
            pinned_sql = sql_answers(held, patterns)
            for commit in commits:
                apply_commit(store, shadow, commit)
                if commit[4]:
                    store.checkpoint()
                if not commit[3]:
                    continue
                view = store.view()
                cold = freeze(shadow)
                assert dump(view.frozen) == dump(cold)
                assert answers(view.frozen, patterns) == answers(cold, patterns)
                if shadow.has_root:
                    image = sql_backend_for(view.frozen)
                    assert sql_answers(image, patterns) == sql_answers(
                        SqlBackend(cold), patterns
                    )
            view = store.view()
            assert dump(view.frozen) == dump(freeze(shadow))
            # version 0 never moved, and the backend held from it still
            # answers version 0 after every later version built its own
            assert dump(pinned.frozen) == pinned_dump
            assert answers(pinned.frozen, patterns) == pinned_answers
            assert sql_answers(held, patterns) == pinned_sql


def probe_sets(probes: ProbeIndex) -> dict:
    """A probe index's content in the snapshot's terms: (edge index,
    source node id) pairs and labels (label ids may be renamed), as sets."""
    fg, values = probes.fg, probes.values
    labels = fg.labels_seq
    return {
        "by_label": {labels[lid]: set(probes.labeled(lid)) for lid in range(len(labels))},
        "into": {
            (node, labels[lid]): set(probes.labeled(lid, into=node))
            for node in fg.nodes()
            for lid in range(len(labels))
        },
        "values": {
            (space, key, labels[lid])
            for space in ("numbers", "numeric", "strings")
            for key, lid in zip(getattr(values, space).keys, getattr(values, space).lids)
        },
        "symbols": {labels[lid] for lid in values.symbols},
        "root_paths": probes.root_paths(fg.nodes()) if fg.has_root else None,
    }


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bases(), COMMITS)
def test_carried_probe_index_equals_a_cold_build(base, commits):
    """Each view's probe index -- carried from the last read unless a
    fold came between -- holds what one built cold on the same graph does."""
    shadow = copy.deepcopy(base)
    with tempfile.TemporaryDirectory() as tmp:
        with VersionedGraphStore.create(Path(tmp) / "s", base, durable=False) as store:
            probes_for(store.view().frozen).values
            for commit in commits:
                apply_commit(store, shadow, commit)
                if commit[4]:
                    store.checkpoint()
                if commit[3]:
                    probes = probes_for(store.view().frozen)
                    assert probe_sets(probes) == probe_sets(ProbeIndex(freeze(shadow)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bases(), COMMITS, PATTERNS)
def test_csr_walk_equals_edges_from_walk(base, commits, pattern):
    """The grouped walk over target buckets (and the insertion-ordered
    pruned scan witnesses use) agrees with the plain-graph walk."""
    shadow = copy.deepcopy(base)
    with tempfile.TemporaryDirectory() as tmp:
        with VersionedGraphStore.create(Path(tmp) / "s", base, durable=False) as store:
            store.view()
            for commit in commits:
                apply_commit(store, shadow, commit)
            fg, graph = store.view().frozen, shadow
            for start in graph.nodes():
                csr, plain = QueryProfile(), QueryProfile()
                assert rpq_nodes(fg, pattern, start, profile=csr) == rpq_nodes(
                    graph, pattern, start, profile=plain
                )
                assert csr.as_dict() == plain.as_dict()
                assert rpq_witnesses(fg, pattern, start) == rpq_witnesses(graph, pattern, start)


def movie_store(directory: Path) -> "tuple[VersionedGraphStore, Graph]":
    """A two-movie store and its shadow (:func:`commit_both`)."""
    g = Graph()
    root = g.new_node()
    g.set_root(root)
    for title in ("Casablanca", "Vertigo"):
        movie, leaf = g.new_node(), g.new_node()
        g.add_edge(root, "Movie", movie)
        g.add_edge(movie, string(title), leaf)
    return VersionedGraphStore.create(directory, g, durable=False), copy.deepcopy(g)


def add_movie(store: VersionedGraphStore, shadow: Graph, title: str) -> None:
    movie, leaf = shadow._next_id, shadow._next_id + 1
    commit_both(store, shadow, [
        AddNode(movie),
        AddNode(leaf),
        AddEdge(shadow.root, sym("Movie"), movie),
        AddEdge(movie, string(title), leaf),
    ])


def test_a_retired_backend_never_serves_a_later_version(tmp_path: Path) -> None:
    store, shadow = movie_store(tmp_path / "s")
    with store:
        v0 = store.view()
        b0 = sql_backend_for(v0.frozen)
        answer0 = b0.rpq_nodes("Movie._")
        add_movie(store, shadow, "Psycho")
        v1 = store.view()
        b1 = sql_backend_for(v1.frozen)
        assert b1 is not b0 and b1.conn is not None
        assert b1.rpq_nodes("Movie._") == rpq_nodes(v1.frozen, "Movie._")
        assert len(b1.rpq_nodes("Movie._")) == len(answer0) + 1
        # v1 built its own image; b0 still holds v0's rows
        assert b0.rpq_nodes("Movie._") == answer0
        assert b1.rpq_nodes("Movie._") == rpq_nodes(v1.frozen, "Movie._")


def test_a_commit_keeps_only_the_image_it_can_carry(tmp_path: Path) -> None:
    """The retired snapshot's SQL image goes at the commit; its
    probe index waits for the next view, which carries it away."""
    store, shadow = movie_store(tmp_path / "s")
    with store:
        v0 = store.view().frozen
        sql_backend_for(v0)
        where_is(v0, "Vertigo")
        assert set(v0._ext) == {"sqlbackend", "probes"}
        add_movie(store, shadow, "Psycho")
        assert set(v0._ext) == {"probes"}
        assert set(store.view().frozen._ext) == {"probes"}
        assert v0._ext == {}


COUNTERS = (
    "mvcc_views_frozen",
    "mvcc_views_derived",
    "sql_image_built",
    "probe_index_built",
    "probe_index_carried",
)


def test_views_and_images_are_derived_and_carried(tmp_path: Path) -> None:
    """Open, read, then 4 x (commit + read): one freeze and one probe index
    build, then four derivations and four carries of the index; the SQL
    image is built once per version read -- and both wire ``stats`` and
    ``stats --json`` report the counters."""
    before = {name: STORAGE_METRICS.counter(name).value for name in COUNTERS}
    store, shadow = movie_store(tmp_path / "s")
    with store:
        service = QueryService(store=store)
        for k in range(5):
            if k:
                add_movie(store, shadow, f"New {k}")
            sql_backend_for(service.current_view().frozen).rpq_nodes("Movie._")
            assert where_is(service.current_view().frozen, "Casablanca") == ["`Movie`.'Casablanca'"]
        delta = {name: STORAGE_METRICS.counter(name).value - before[name] for name in COUNTERS}
        assert delta == {
            "mvcc_views_frozen": 1,
            "mvcc_views_derived": 4,
            "sql_image_built": 5,
            "probe_index_built": 1,
            "probe_index_carried": 4,
        }
        assert set(COUNTERS) <= set(service.stats()["storage"])


def test_a_wildcard_walk_reads_the_carried_probe_index(tmp_path: Path) -> None:
    """``_*."Vertigo"`` is pruned to the nodes that reach a ``"Vertigo"``
    edge, found from the probe index: built once, then carried by every
    commit, never rebuilt for the walk."""
    before = {name: STORAGE_METRICS.counter(name).value for name in COUNTERS}
    walks = PLAN_METRICS.counter("coreach_walks").value
    store, shadow = movie_store(tmp_path / "s")
    with store:
        for k in range(5):
            if k:
                add_movie(store, shadow, f"New {k}")
            fg = store.view().frozen
            assert rpq_nodes(fg, '_*."Vertigo"') == rpq_nodes(shadow, '_*."Vertigo"')
        delta = {name: STORAGE_METRICS.counter(name).value - before[name] for name in COUNTERS}
        assert (delta["probe_index_built"], delta["probe_index_carried"]) == (1, 4)
        assert PLAN_METRICS.counter("coreach_walks").value - walks == 10  # 5 snapshots, 5 graphs


def test_stats_json_reports_view_and_image_counters(tmp_path: Path, capsys) -> None:
    db = tmp_path / "db.json"
    db.write_text(json.dumps({"Movie": [{"Title": "Casablanca"}]}))
    assert cli_main(["stats", str(db), "--json"]) == 0
    storage = json.loads(capsys.readouterr().out)["storage"]
    for name in COUNTERS:
        assert name in storage
