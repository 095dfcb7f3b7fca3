"""VersionedGraphStore behavior: batches, versions, snapshots, checkpoints.

The MVCC contract under test: version ids are commit sequence numbers,
a handed-out :class:`SnapshotView` never changes, reopening a directory
reproduces the exact committed state, and a fold neither rebuilds the
snapshot nor what readers keep on it.
"""

import json
from pathlib import Path

import pytest

from repro.automata import rpq_nodes
from repro.browse import where_is
from repro.core.convert import graph_to_oem
from repro.core.graph import Graph, GraphError
from repro.core.labels import string, sym
from repro.datasets import generate_movies
from repro.lorel import lorel, lorel_rows
from repro.sqlbackend import sql_backend_for
from repro.storage import AddEdge, AddNode, VersionedGraphStore
from repro.storage.serializer import STORAGE_METRICS


def same_state(g1: Graph, g2: Graph) -> bool:
    """Exact (id-level) state equality -- stronger than bisimulation."""
    adj1 = {n: [(e.label, e.dst) for e in g1.edges_from(n)] for n in g1.nodes()}
    adj2 = {n: [(e.label, e.dst) for e in g2.edges_from(n)] for n in g2.nodes()}
    root1 = g1.root if g1.has_root else None
    root2 = g2.root if g2.has_root else None
    return adj1 == adj2 and root1 == root2


def seeded_store(tmp_path: Path, **kwargs) -> VersionedGraphStore:
    kwargs.setdefault("durable", False)
    return VersionedGraphStore.create(
        tmp_path / "store", generate_movies(8, seed=3), **kwargs
    )


class TestBatches:
    def test_commit_assigns_sequential_versions(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            assert store.version == 0
            for expect in (1, 2, 3):
                batch = store.batch()
                node = batch.new_node()
                batch.add_edge(store.graph.root, f"Extra{expect}", node)
                assert batch.commit() == expect
            assert store.version == 3

    def test_batch_edges_may_reference_batch_nodes(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            batch = store.batch()
            movie = batch.new_node()
            title = batch.new_node()
            batch.add_edge(store.graph.root, "Movie", movie)
            batch.add_edge(movie, "Title", title)
            batch.add_edge(title, string("Vertigo"), title)
            store_version = batch.commit()
            assert store.graph.has_node(movie) and store.graph.has_node(title)
            assert store.version == store_version

    def test_unknown_nodes_rejected_at_staging(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            batch = store.batch()
            with pytest.raises(GraphError):
                batch.add_edge(10_000, "x", store.graph.root)
            with pytest.raises(GraphError):
                batch.add_edge(store.graph.root, "x", 10_000)
            with pytest.raises(GraphError):
                batch.set_root(10_000)

    def test_bad_delta_never_reaches_the_log(self, tmp_path: Path) -> None:
        # commit() validates before appending: a rejected commit leaves
        # both the version counter and the on-disk log untouched
        with seeded_store(tmp_path) as store:
            before = store.stats()["wal_bytes"]
            with pytest.raises(GraphError):
                store.commit([AddEdge(10_000, sym("x"), 0)])
            assert store.version == 0
            assert store.stats()["wal_bytes"] == before

    def test_concurrent_batches_cannot_alias_node_ids(self, tmp_path: Path) -> None:
        # two batches opened at one version both allocate node 1; the
        # second commit must be refused, not graft its edges onto the
        # first batch's node (which would make A.C match)
        g = Graph()
        g.set_root(g.new_node())
        directory = tmp_path / "store"
        with VersionedGraphStore.create(directory, g, durable=False) as store:
            b1, b2 = store.batch(), store.batch()
            n1, n2 = b1.new_node(), b2.new_node()
            assert n1 == n2 == 1
            b1.add_edge(0, "A", n1)
            b2.add_edge(0, "B", n2)
            b2.add_edge(n2, "C", n2)
            assert b1.commit() == 1
            wal_bytes = store.stats()["wal_bytes"]
            with pytest.raises(GraphError):
                b2.commit()
            assert store.version == 1
            assert store.stats()["wal_bytes"] == wal_bytes
            assert rpq_nodes(store.view().frozen, "A.C") == set()
        with VersionedGraphStore(directory, durable=False) as reopened:
            assert reopened.version == 1
            assert [(e.label, e.dst) for e in reopened.graph.edges_from(0)] == [(sym("A"), 1)]
            assert list(reopened.graph.edges_from(1)) == []

    def test_node_ids_must_be_fresh(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            next_id = store._next_id
            for node in (store.graph.root, next_id - 1):
                with pytest.raises(GraphError):
                    store.commit([AddNode(node)])
            with pytest.raises(GraphError):
                store.commit([AddNode(next_id), AddNode(next_id)])
            assert store.version == 0
            assert store.commit([AddNode(next_id + 5)]) == 1  # a gap is fine

    def test_nothing_visible_before_commit(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            nodes_before = store.graph.num_nodes
            batch = store.batch()
            batch.new_node()
            assert store.graph.num_nodes == nodes_before
            assert store.version == 0


class TestSnapshots:
    def test_views_pin_their_version(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            v0 = store.view()
            edges0 = v0.frozen.num_edges
            batch = store.batch()
            extra = batch.new_node()
            batch.add_edge(store.graph.root, "Extra", extra)
            batch.commit()
            v1 = store.view()
            assert v0.version == 0 and v1.version == 1
            assert v0.frozen.num_edges == edges0  # untouched by the commit
            assert v1.frozen.num_edges == edges0 + 1

    def test_view_is_cached_per_version(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            assert store.view() is store.view()
            store.commit([AddNode(store._next_id)])
            assert store.view().version == 1

    def test_view_frozen_and_oem_outlive_commits(self, tmp_path: Path) -> None:
        # the view publishes the snapshot only; its OEM face decodes
        # objects lazily, so the ones first touched *after* a commit must
        # still be version 0's
        query = "select m.Title from DB.Entry.Movie m"
        base = generate_movies(8, seed=3)
        with seeded_store(tmp_path) as store:
            view = store.view()
            assert view.oem is view.oem  # lazy, then cached
            rows = lorel_rows(lorel(query, view.oem))
            batch = store.batch()
            entry, movie, title = (batch.new_node() for _ in range(3))
            batch.add_edge(store.graph.root, "Entry", entry)
            batch.add_edge(entry, "Movie", movie)
            batch.add_edge(movie, "Title", title)
            batch.add_edge(title, string("Late"), batch.new_node())
            batch.commit()
            assert same_state(view.frozen, base)
            assert lorel_rows(lorel(query, view.oem)) == rows
            expected = graph_to_oem(base)
            renumbered = dict(zip(view.oem.oids(), expected.oids()))
            for oid, twin in renumbered.items():
                ours, theirs = view.oem.get(oid), expected.get(twin)
                assert ours.atom == theirs.atom
                assert [(lab, renumbered[c]) for lab, c in ours.children] == theirs.children
            assert len(lorel_rows(lorel(query, store.view().oem))) == len(rows) + 1


class TestDurability:
    def test_reopen_replays_committed_state(self, tmp_path: Path) -> None:
        store = seeded_store(tmp_path)
        root = store.graph.root
        batch = store.batch()
        show = batch.new_node()
        batch.add_edge(root, "TVShow", show)
        batch.add_edge(show, string("Twin Peaks"), show)
        batch.commit()
        expected = store.graph
        store.close()

        with VersionedGraphStore(tmp_path / "store", durable=False) as reopened:
            assert reopened.version == 1
            assert reopened.recovery.replayed_records == 1
            assert reopened.recovery.discarded_bytes == 0
            assert same_state(reopened.graph, expected)

    def test_group_commit_defers_the_ack(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path, durable=True) as store:
            before = STORAGE_METRICS.counter("wal_syncs").value
            for _ in range(5):
                batch = store.batch()
                batch.new_node()
                batch.commit(sync=False)
            assert store.version == 5
            assert store.acked_version == 0  # written, not yet acknowledged
            store.sync()
            assert store.acked_version == 5
            assert STORAGE_METRICS.counter("wal_syncs").value == before + 1

    def test_create_refuses_to_clobber(self, tmp_path: Path) -> None:
        seeded_store(tmp_path).close()
        with pytest.raises(FileExistsError):
            VersionedGraphStore.create(tmp_path / "store", Graph(), durable=False)

    def test_checkpoint_folds_the_log(self, tmp_path: Path) -> None:
        store = seeded_store(tmp_path)
        for k in range(3):
            batch = store.batch()
            node = batch.new_node()
            batch.add_edge(store.graph.root, f"C{k}", node)
            batch.commit()
        store.checkpoint()
        expected = store.graph
        assert store.stats()["checkpoint_seq"] == 3
        store.close()

        with VersionedGraphStore(tmp_path / "store", durable=False) as reopened:
            assert reopened.version == 3
            assert reopened.recovery.checkpoint_seq == 3
            assert reopened.recovery.replayed_records == 0  # log was folded
            assert same_state(reopened.graph, expected)

    def test_auto_checkpoint_every_n_commits(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path, checkpoint_every=2) as store:
            for _ in range(5):
                batch = store.batch()
                batch.new_node()
                batch.commit()
            assert store.stats()["checkpoint_seq"] == 4  # folded at 2 and 4

    def test_checkpoint_preserves_unreachable_nodes_and_ids(self, tmp_path: Path) -> None:
        # the SSD1 interchange format renumbers and prunes; the
        # checkpoint codec must not, or WAL replay dereferences garbage
        g = Graph()
        a = g.new_node()
        g.set_root(a)
        orphan = g.new_node()  # unreachable, but a valid delta target
        g.add_edge(orphan, "self", orphan)
        store = VersionedGraphStore.create(tmp_path / "store", g, durable=False)
        store.commit([AddEdge(a, sym("adopt"), orphan)])
        expected = store.graph
        store.close()
        with VersionedGraphStore(tmp_path / "store", durable=False) as reopened:
            assert same_state(reopened.graph, expected)
            assert reopened.graph.has_node(orphan)




class TestFold:
    """A checkpoint encodes the current snapshot and keeps it."""

    COUNTERS = ("mvcc_views_frozen", "sql_image_built", "probe_index_built")

    def test_a_fold_rebuilds_nothing_a_reader_holds(self, tmp_path: Path) -> None:
        def read(fg) -> None:
            sql_backend_for(fg).rpq_nodes("Entry.Movie")
            where_is(fg, "Vertigo")  # the probe index

        with seeded_store(tmp_path) as store:
            read(store.view().frozen)
            batch = store.batch()
            batch.add_edge(store.view().frozen.root, "Extra", batch.new_node())
            batch.commit()
            before = {name: STORAGE_METRICS.counter(name).value for name in self.COUNTERS}
            store.checkpoint()  # derives the committed version: nothing is re-frozen
            read(store.view().frozen)
            after = {name: STORAGE_METRICS.counter(name).value for name in self.COUNTERS}
            # the SQL image is per version: the read after the fold builds the new one
            assert after == {**before, "sql_image_built": before["sql_image_built"] + 1}

    def test_a_fold_with_nothing_committed_keeps_the_view(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            view = store.view()
            store.checkpoint()
            assert store.view() is view
            store.commit([AddNode(store._next_id)])
            view = store.view()
            store.checkpoint()
            assert store.view() is view


def test_counts_are_reported_without_building_a_snapshot(
    tmp_path: Path, monkeypatch, capsys
) -> None:
    """The wire ``stats`` op and ``repro recover`` read the store's counts:
    neither freezes nor derives a snapshot, even with commits unread."""
    from repro.cli import main as cli_main
    from repro.core.frozen import FrozenGraph
    from repro.service import InProcessHarness, QueryService

    built = []
    real_init, real_derive = FrozenGraph.__init__, FrozenGraph.derive
    with seeded_store(tmp_path) as store:
        store.view()
        node = store.batch().new_node()
        store.commit([AddNode(node), AddEdge(store.view().frozen.root, sym("x"), node)])
        expected = {"nodes": store.stats()["nodes"], "edges": store.stats()["edges"]}
        monkeypatch.setattr(
            FrozenGraph, "__init__", lambda fg, *a: (built.append("freeze"), real_init(fg, *a))[1]
        )
        monkeypatch.setattr(
            FrozenGraph,
            "derive",
            lambda fg, *a: (built.append("derive"), real_derive(fg, *a))[1],
        )
        stats = InProcessHarness(QueryService(store=store)).run_one({"id": 1, "op": "stats"})
        graph = stats["result"]["graph"]
        assert {"nodes": graph["nodes"], "edges": graph["edges"]} == expected
        assert graph["version"] is None
    assert cli_main(["recover", str(tmp_path / "store")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"nodes": report["nodes"], "edges": report["edges"]} == expected
    assert report["replayed_records"] == 1
    assert built == []
    with VersionedGraphStore(tmp_path / "store", durable=False) as reopened:
        fg = reopened.view().frozen
        assert (fg.num_nodes, fg.num_edges) == (expected["nodes"], expected["edges"])
