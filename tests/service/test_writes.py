"""The service write path: ``apply`` requests and snapshot isolation.

ISSUE 10's service-layer contract: writes go through admission control
like any query, a reader admitted before a write answers from the
snapshot it pinned at admission (readers are never blocked by -- or
torn by -- writers), and a write acknowledged ``ok`` is durable in the
store directory across a close/reopen.
"""

import gc
import json
from pathlib import Path

import pytest

from repro.automata.product import rpq_nodes
from repro.browse import where_is
from repro.core.builder import to_obj
from repro.core.convert import graph_to_oem
from repro.core.frozen import FrozenGraph
from repro.core.graph import Graph
from repro.core.labels import boolean, integer, real, string, sym
from repro.datasets import generate_movies
from repro.lorel import lorel, lorel_rows
from repro.obs.metrics import MetricsRegistry
from repro.resilience import SimulatedClock
from repro.service import InProcessHarness, QueryService
from repro.service.server import label_from_wire
from repro.service.errors import ProtocolError
from repro.service.protocol import validate_request
from repro.storage import VersionedGraphStore
from repro.unql import unql


def store_service(tmp_path: Path, **kw):
    store = VersionedGraphStore.create(
        tmp_path / "store", generate_movies(10, seed=11), durable=False
    )
    kw.setdefault("clock", SimulatedClock())
    kw.setdefault("metrics", MetricsRegistry())
    return store, QueryService(store=store, **kw)


def add_movie_request(rid: int, root: int, title: str, **extra) -> dict:
    return {
        "id": rid,
        "op": "apply",
        "mutations": [
            {"kind": "node", "name": "m"},
            {"kind": "node", "name": "t"},
            {"kind": "edge", "src": root, "label": "Movie", "dst": "m"},
            {"kind": "edge", "src": "m", "label": "Title", "dst": "t"},
            {"kind": "edge", "src": "t", "label": {"kind": "string", "value": title}, "dst": "t"},
        ],
        **extra,
    }


class TestApply:
    def test_apply_commits_and_reports_names(self, tmp_path: Path) -> None:
        store, svc = store_service(tmp_path)
        with store:
            harness = InProcessHarness(svc)
            response = harness.run_one(add_movie_request(1, store.graph.root, "Gilda"))
            assert response["status"] == "ok"
            result = response["result"]
            assert result["version"] == 1 and result["acked"] == 1
            assert set(result["nodes"]) == {"m", "t"}
            movie = result["nodes"]["m"]
            assert store.graph.has_node(movie)

    def test_new_data_is_queryable_after_apply(self, tmp_path: Path) -> None:
        store, svc = store_service(tmp_path)
        with store:
            harness = InProcessHarness(svc)
            before = harness.run_one({"id": 1, "op": "rpq", "query": "Entry.Movie.Title"})
            harness.run_one(add_movie_request(2, store.graph.root, "Gilda"))
            # the new movie hangs off the root under "Movie", not "Entry";
            # query it by its own path
            after = harness.run_one({"id": 3, "op": "rpq", "query": "Movie.Title"})
            assert after["status"] == "ok"
            assert len(after["result"]) == 1
            assert before["result"] == sorted(
                rpq_nodes(store.view().frozen, "Entry.Movie.Title")
            )

    def test_read_only_service_refuses_typed(self) -> None:
        svc = QueryService(
            generate_movies(5, seed=2), clock=SimulatedClock(), metrics=MetricsRegistry()
        )
        harness = InProcessHarness(svc)
        response = harness.run_one(add_movie_request(1, 0, "Nope"))
        assert response["status"] == "error"
        assert response["error_type"] == "ReadOnly"

    def test_bad_mutation_is_typed_error_service_survives(self, tmp_path: Path) -> None:
        store, svc = store_service(tmp_path)
        with store:
            harness = InProcessHarness(svc)
            response = harness.run_one(
                {
                    "id": 1,
                    "op": "apply",
                    "mutations": [
                        {"kind": "edge", "src": 99_999, "label": "x", "dst": 99_999}
                    ],
                }
            )
            assert response["status"] == "error"
            assert store.version == 0  # nothing committed
            # the service is alive and the store is still writable
            ok = harness.run_one(add_movie_request(2, store.graph.root, "Laura"))
            assert ok["status"] == "ok" and store.version == 1

    @pytest.mark.parametrize(
        "label",
        [
            {"kind": "symbol"},  # was the symbol `None`
            {"kind": "int", "value": 1.9},  # was 1
            {"kind": "bool", "value": "false"},  # was True
            {"kind": "string", "value": None},  # was "None"
            {"kind": "real", "value": float("nan")},
            {"kind": "real", "value": 10**400},
            float("inf"),
        ],
        ids=["symbol-null", "int-fraction", "bool-text", "string-null", "real-nan",
             "real-overflow", "scalar-inf"],
    )
    def test_a_label_of_the_wrong_type_is_refused_not_coerced(
        self, tmp_path: Path, label: object
    ) -> None:
        store, svc = store_service(tmp_path)
        with store:
            response = InProcessHarness(svc).run_one(
                {"id": 1, "op": "apply", "mutations": [
                    {"kind": "edge", "src": store.graph.root, "label": label,
                     "dst": store.graph.root}
                ]}
            )
            assert response["status"] == "error" and response["error_type"] == "ValueError"
            assert store.version == 0

    def test_wire_labels_of_each_kind_decode_exactly(self) -> None:
        assert label_from_wire({"kind": "symbol", "value": "Movie"}) == sym("Movie")
        assert label_from_wire({"kind": "string", "value": "Movie"}) == string("Movie")
        assert label_from_wire({"kind": "int", "value": 7}) == integer(7)
        assert label_from_wire({"kind": "real", "value": 2}) == real(2.0)
        assert label_from_wire({"kind": "bool", "value": False}) == boolean(False)
        assert label_from_wire("Movie") == sym("Movie") and label_from_wire(1.5) == real(1.5)
        with pytest.raises(ValueError, match="cannot hold"):
            label_from_wire({"kind": "int", "value": True})

    def test_deferred_sync_reports_the_ack_horizon(self, tmp_path: Path) -> None:
        store = VersionedGraphStore.create(
            tmp_path / "store", generate_movies(6, seed=4), durable=True
        )
        svc = QueryService(store=store, clock=SimulatedClock(), metrics=MetricsRegistry())
        with store:
            harness = InProcessHarness(svc)
            root = store.graph.root
            deferred = harness.run_one(add_movie_request(1, root, "One", sync=False))
            assert deferred["result"]["version"] == 1
            assert deferred["result"]["acked"] == 0  # written, not yet durable
            synced = harness.run_one(add_movie_request(2, root, "Two", sync=True))
            assert synced["result"]["acked"] == 2  # the group fsync covered both

    def test_apply_is_durable_across_reopen(self, tmp_path: Path) -> None:
        store, svc = store_service(tmp_path)
        harness = InProcessHarness(svc)
        response = harness.run_one(add_movie_request(1, store.graph.root, "Notorious"))
        movie = response["result"]["nodes"]["m"]
        store.close()
        with VersionedGraphStore(tmp_path / "store", durable=False) as reopened:
            assert reopened.version == 1
            assert reopened.graph.has_node(movie)

    def test_stats_reports_the_store(self, tmp_path: Path) -> None:
        store, svc = store_service(tmp_path)
        with store:
            harness = InProcessHarness(svc)
            harness.run_one(add_movie_request(1, store.graph.root, "Rope"))
            stats = harness.run_one({"id": 2, "op": "stats"})["result"]
            assert stats["store"]["version"] == 1
            assert stats["store"]["nodes"] == store.graph.num_nodes


    def test_stats_reports_without_freezing(self, tmp_path: Path, monkeypatch) -> None:
        import repro.storage.mvcc as mvcc

        freezes = []
        real_freeze = mvcc.freeze
        monkeypatch.setattr(
            mvcc, "freeze", lambda graph: (freezes.append(1), real_freeze(graph))[1]
        )
        store, svc = store_service(tmp_path)
        with store:
            harness = InProcessHarness(svc)
            harness.run_one({"id": 1, "op": "rpq", "query": "Entry"})  # a reader froze v0
            seen = harness.run_one({"id": 2, "op": "stats"})["result"]["graph"]
            assert seen["version"] == store.view().version == 0
            harness.run_one(add_movie_request(3, store.graph.root, "Laura"))
            before = len(freezes)
            stats = harness.run_one({"id": 4, "op": "stats"})["result"]
            assert len(freezes) == before  # a diagnostic does no work
            assert stats["graph"] == {
                "nodes": store.graph.num_nodes,
                "edges": store.graph.num_edges,
                "version": None,  # nobody has read version 1 yet
            }
            assert stats["store"]["edges"] == store.graph.num_edges
            assert {"hits", "misses"} <= set(stats["plan_cache"])
            assert "governor" in stats


class TestSnapshotIsolation:
    def test_reader_admitted_before_write_sees_its_snapshot(self, tmp_path: Path) -> None:
        """Readers are never blocked by writers -- and never see them.

        A query admitted at version 0 runs interleaved with a write that
        lands mid-flight; the query must answer exactly for version 0,
        and a query admitted afterwards must see version 1.
        """
        store, svc = store_service(tmp_path)
        with store:
            harness = InProcessHarness(svc)
            baseline = sorted(rpq_nodes(store.view().frozen, "Movie.Title"))
            reader = harness.submit({"id": 1, "op": "rpq", "query": "Movie.Title"})
            assert not reader.done  # admitted, pinned at v0, not yet run
            harness.submit(add_movie_request(2, store.graph.root, "Vertigo"))
            harness.run()  # round-robin: the write lands while the read steps
            assert harness.responses[2]["status"] == "ok"
            assert store.version == 1
            read = harness.responses[1]
            assert read["status"] == "ok"
            assert read["result"] == baseline  # v0 exactly: isolation held
            fresh = harness.run_one({"id": 3, "op": "rpq", "query": "Movie.Title"})
            assert len(fresh["result"]) == len(baseline) + 1

    def test_every_engine_serves_from_the_pinned_view(self, tmp_path: Path) -> None:
        """Every in-place reader, on both SQL modes, answers its admission version.

        Readers of all four op classes are admitted at v0; a commit lands
        before any of them runs; each must answer exactly what the library
        answers on the v0 graph (the SQL stragglers build their own image
        of the old snapshot), and the same requests admitted afterwards
        exactly what it answers on the v1 graph.
        """
        rpq = "Entry.Movie.Title"
        lorel_q = "select m.Title from DB.Entry.Movie m"
        unql_q = r"select \t where {Entry.Movie.Title: \t} in db"
        shadow = generate_movies(10, seed=11)  # the store keeps these node ids
        title = next(
            e.label.value
            for node in sorted(rpq_nodes(shadow, rpq))
            for e in shadow.edges_from(node)
        )

        def expected() -> dict[str, object]:
            return {
                "rpq": sorted(rpq_nodes(shadow, rpq)),
                "lorel": lorel_rows(lorel(lorel_q, graph_to_oem(shadow))),
                "unql": to_obj(unql(unql_q, db=shadow)),
                "find": where_is(shadow, title),
            }

        queries = {"rpq": rpq, "lorel": lorel_q, "unql": unql_q, "find": json.dumps(title)}
        requests = [{"op": "find", "query": queries["find"]}] + [
            {"op": op, "query": queries[op], "engine": engine}
            for op in ("rpq", "lorel", "unql")
            for engine in ("native", "auto", "sql")
        ]
        store, svc = store_service(tmp_path, max_inflight=len(requests) + 1)
        with store:
            at_v0 = expected()
            harness = InProcessHarness(svc)
            readers = harness.submit_all(
                [{"id": i, **request} for i, request in enumerate(requests)]
            )
            assert all(not r.done for r in readers)  # admitted, pinned, not yet run
            entry, movie, leaf = (shadow.new_node() for _ in range(3))
            shadow.add_edge(shadow.root, "Entry", entry)
            shadow.add_edge(entry, "Movie", movie)
            shadow.add_edge(movie, "Title", leaf)
            shadow.add_edge(leaf, string(title), shadow.new_node())
            writer = InProcessHarness(svc)  # a second session: commits first
            applied = writer.run_one(
                {
                    "id": 1,
                    "op": "apply",
                    "mutations": [
                        *({"kind": "node", "name": n} for n in "emtv"),
                        {"kind": "edge", "src": shadow.root, "label": "Entry", "dst": "e"},
                        {"kind": "edge", "src": "e", "label": "Movie", "dst": "m"},
                        {"kind": "edge", "src": "m", "label": "Title", "dst": "t"},
                        {"kind": "edge", "src": "t",
                         "label": {"kind": "string", "value": title}, "dst": "v"},
                    ],
                }
            )
            assert applied["status"] == "ok" and store.version == 1
            at_v1 = expected()
            assert all(at_v0[op] != at_v1[op] for op in at_v0)  # the commit shows everywhere
            harness.run()
            for i, request in enumerate(requests):
                response = harness.responses[i]
                assert response["status"] == "ok", (request, response)
                assert response["result"] == at_v0[request["op"]], request
                assert (response.get("engine") == "sql") == (
                    request.get("engine") == "sql"
                ), request
            for i, request in enumerate(requests, start=100):
                fresh = harness.run_one({"id": i, **request})
                assert fresh["result"] == at_v1[request["op"]], request

    def test_superseded_snapshots_are_freed_without_the_cycle_collector(
        self, tmp_path: Path
    ) -> None:
        """A retired version's snapshot dies by reference counting.

        Its derived engines (SQL image, planner) point back at it; if
        they also hang off it, only the cyclic collector can free it --
        and a server whose kernel allocates little rarely runs that.
        """
        reads = [
            {"op": "rpq", "query": "Entry.Movie.Title"},
            {"op": "find", "query": json.dumps("Casablanca")},
            {"op": "rpq", "query": "Entry.Movie.Title", "engine": "sql"},
            {"op": "lorel", "query": "select m.Title from DB.Entry.Movie m", "engine": "sql"},
            {"op": "unql", "query": r"select \t where {Entry.Movie.Title: \t} in db"},
        ]

        def live_snapshots() -> int:
            return sum(isinstance(obj, FrozenGraph) for obj in gc.get_objects())

        store, svc = store_service(tmp_path)
        with store:
            harness = InProcessHarness(svc)
            gc.collect()
            before = live_snapshots()
            gc.disable()
            try:
                rid = 0
                for commit in range(6):
                    rid += 1
                    applied = harness.run_one(
                        add_movie_request(rid, store.graph.root, f"T{commit}")
                    )
                    assert applied["status"] == "ok"
                    for read in reads:
                        rid += 1
                        assert harness.run_one({"id": rid, **read})["status"] == "ok"
                harness.responses.clear()
                assert live_snapshots() <= before + 1  # the current version's
            finally:
                gc.enable()

    def test_old_views_survive_many_commits(self, tmp_path: Path) -> None:
        store, svc = store_service(tmp_path)
        with store:
            v0 = svc.current_view()
            edges0 = v0.frozen.num_edges
            harness = InProcessHarness(svc)
            for rid in range(1, 6):
                harness.run_one(add_movie_request(rid, store.graph.root, f"T{rid}"))
            assert store.version == 5
            assert v0.version == 0 and v0.frozen.num_edges == edges0


class TestProtocol:
    def test_apply_requires_nonempty_mutation_list(self) -> None:
        with pytest.raises(ProtocolError):
            validate_request({"id": 1, "op": "apply", "mutations": []})
        with pytest.raises(ProtocolError):
            validate_request({"id": 1, "op": "apply"})
        with pytest.raises(ProtocolError):
            validate_request(
                {"id": 1, "op": "apply", "mutations": [{"kind": "frob"}]}
            )
        with pytest.raises(ProtocolError):
            validate_request(
                {"id": 1, "op": "apply", "mutations": [{"kind": "node"}], "sync": "yes"}
            )

    def test_valid_apply_passes(self) -> None:
        request = {
            "id": 1,
            "op": "apply",
            "mutations": [{"kind": "node", "name": "n"}],
            "sync": False,
        }
        assert validate_request(request) is request

    def test_service_requires_store_xor_graph(self, tmp_path: Path) -> None:
        store = VersionedGraphStore.create(tmp_path / "s", Graph(), durable=False)
        with store:
            with pytest.raises(ValueError):
                QueryService(generate_movies(2), store=store)
            with pytest.raises(ValueError):
                QueryService()
