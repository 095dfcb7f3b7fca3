"""VersionedGraphStore behavior: batches, versions, snapshots, checkpoints.

The MVCC contract under test: version ids are commit sequence numbers,
a handed-out :class:`SnapshotView` never changes, reopening a directory
reproduces the exact committed state, and incremental index/DataGuide
maintenance answers identically to a cold rebuild.
"""

from pathlib import Path

import pytest

from repro.automata import rpq_nodes
from repro.core.convert import graph_to_oem
from repro.core.graph import Graph, GraphError
from repro.core.labels import string, sym
from repro.datasets import generate_movies
from repro.index import GraphIndexes
from repro.lorel import lorel, lorel_rows
from repro.schema.dataguide import DataGuide
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
            next_id = store.graph._next_id
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
            store.commit([AddNode(store.graph._next_id)])
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


class TestIncrementalMaintenance:
    def test_indexes_survive_commits_without_rebuild(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            indexes = store.indexes
            path_before = indexes.path  # force the build
            batch = store.batch()
            movie = batch.new_node()
            batch.add_edge(store.graph.root, "Movie", movie)
            batch.commit()
            # same objects, refreshed -- not rebuilt
            assert store.indexes is indexes
            assert indexes.path is path_before
            assert not indexes.path.is_stale()

    def test_refreshed_indexes_match_cold_rebuild(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            store.indexes.build_all()
            guide = store.guide
            root = store.graph.root
            batch = store.batch()
            movie = batch.new_node()
            title = batch.new_node()
            batch.add_edge(root, "Movie", movie)
            batch.add_edge(movie, "Title", title)
            batch.add_edge(title, string("Marnie"), title)
            batch.commit()

            cold = GraphIndexes(store.graph, path_depth=4).build_all()
            assert store.indexes.path._paths == cold.path._paths
            assert {
                lab: sorted((e.src, e.dst) for e in edges)
                for lab, edges in store.indexes.label._by_label.items()
            } == {
                lab: sorted((e.src, e.dst) for e in edges)
                for lab, edges in cold.label._by_label.items()
            }
            assert sorted(store.indexes.text.vocabulary) == sorted(cold.text.vocabulary)
            assert guide.equivalent_to(DataGuide(store.graph))

    def test_set_root_resets_visibility(self, tmp_path: Path) -> None:
        with seeded_store(tmp_path) as store:
            store.indexes.build_all()
            batch = store.batch()
            new_root = batch.new_node()
            batch.set_root(new_root)
            batch.commit()
            # non-monotone change: everything derived restarts from scratch
            cold = GraphIndexes(store.graph, path_depth=4).build_all()
            assert store.indexes.path._paths == cold.path._paths
            assert store.guide.equivalent_to(DataGuide(store.graph))
            assert store.view().frozen.root == new_root
            assert store.indexes.path.lookup(()) == {new_root}

    def test_edge_into_invisible_region_opens_it(self, tmp_path: Path) -> None:
        # build a disconnected island first, then bridge to it: the
        # island's interior edges must enter the indexes too
        g = Graph()
        root = g.new_node()
        g.set_root(root)
        store = VersionedGraphStore.create(tmp_path / "store", g, durable=False)
        try:
            batch = store.batch()
            a = batch.new_node()
            b = batch.new_node()
            batch.add_edge(a, "inner", b)  # invisible: a is unreachable
            batch.commit()
            store.indexes.build_all()
            assert store.indexes.label.count(sym("inner")) == 0

            store.commit([AddEdge(root, sym("bridge"), a)])
            assert store.indexes.label.count(sym("inner")) == 1
            cold = GraphIndexes(store.graph, path_depth=4).build_all()
            assert store.indexes.path._paths == cold.path._paths
        finally:
            store.close()
