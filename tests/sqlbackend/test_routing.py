"""The SQL backend's reach: native engines, service, CLI, parity.

The backend is served only when asked for by name -- the native engines
never consult it, the service only on ``"engine": "sql"``, the CLI only
under ``--engine sql``; ``auto`` is an alias of ``native`` everywhere --
and the pinned golden profiles must stay byte-identical whether or not
a backend exists anywhere in the process.
"""

import json
from pathlib import Path

import pytest

from repro.automata.product import rpq_nodes
from repro.core.convert import graph_to_oem
from repro.core.frozen import freeze
from repro.datasets import figure1, generate_movies, generate_web
from repro.lorel import evaluate_lorel, parse_lorel
from repro.obs import QueryProfile
from repro.obs.metrics import MetricsRegistry
from repro.service.server import QueryService
from repro.sqlbackend import lorel_sql_backend_for, sql_backend_for
from repro.unql import evaluate_query, parse_query, unql


class TestNativeRoute:
    """The native engines have no SQL route: none of them builds an image."""

    def test_native_engines_never_build_an_image(self):
        fg = freeze(generate_web(25, seed=4))
        rpq_nodes(fg, "link.title")
        unql(r"select \t where {link.title: \t} in db", db=fg)
        assert "sqlbackend" not in fg._ext

    def test_root_unql_edges_walk_the_kernel(self):
        fg = freeze(generate_web(25, seed=4))
        answer = unql(r"select {t: \t} where {link*.title: \t} in db", db=fg)
        assert answer.out_degree(answer.root) == len(rpq_nodes(fg, "link*.title"))
        assert "sqlbackend" not in fg._ext


GOLDEN = json.loads(
    (Path(__file__).parent.parent / "obs" / "golden_profiles.json").read_text()
)


class TestGoldenProfileParity:
    """Building SQL backends must not move a single pinned count."""

    def _attach_everything(self, graph):
        fg = freeze(graph)
        sql_backend_for(fg)
        lorel_sql_backend_for(graph_to_oem(graph))

    def test_rpq_profile_unmoved(self):
        g = figure1()
        self._attach_everything(g)
        profile = QueryProfile()
        rpq_nodes(g, "Entry.Movie.Title", profile=profile)
        assert profile.as_dict() == GOLDEN["figure1/rpq-title"]

    def test_lorel_profile_unmoved(self):
        g = figure1()
        self._attach_everything(g)
        db = graph_to_oem(g)
        query = "select t from DB.Entry.Movie.Title t"
        profile = QueryProfile(query=query)
        evaluate_lorel(parse_lorel(query), db, profile=profile)
        assert profile.as_dict() == GOLDEN["figure1/lorel-title"]

    def test_unql_profile_unmoved(self):
        g = generate_movies(30, seed=11)
        self._attach_everything(g)
        text = r"select \n where {Entry.Movie.Cast: \n} in db"
        profile = QueryProfile(query=text)
        evaluate_query(parse_query(text), {"db": g, "DB": g}, profile=profile)
        assert profile.as_dict() == GOLDEN["movies30/unql-cast"]

    def test_closure_profile_unmoved(self):
        g = generate_web(40, seed=7)
        self._attach_everything(g)
        profile = QueryProfile()
        rpq_nodes(g, "link*.keyword", profile=profile)
        assert profile.as_dict() == GOLDEN["web40/rpq-keywords"]


@pytest.fixture()
def service():
    svc = QueryService(generate_web(30, seed=1), metrics=MetricsRegistry())
    session = svc.connect()

    def run(request):
        task = svc.submit(session, request)
        for _ in task.steps():
            pass
        return task.response

    return svc, run


class TestServiceEngine:
    def test_sql_engine_agrees_and_is_labelled(self, service):
        svc, run = service
        native = run({"id": 1, "op": "rpq", "query": "link.title"})
        via_sql = run({"id": 2, "op": "rpq", "query": "link.title", "engine": "sql"})
        assert via_sql["result"] == native["result"]
        assert via_sql["engine"] == "sql" and "engine" not in native

    def test_auto_keeps_closures_native(self, service):
        svc, run = service
        for query in ("link*.title", "link.title"):
            native = run({"id": 1, "op": "rpq", "query": query})
            auto = run({"id": 2, "op": "rpq", "query": query, "engine": "auto"})
            assert auto == {**native, "id": 2}  # served natively, ops included
        assert "sqlbackend" not in svc.frozen._ext

    def test_lorel_and_unql_engines(self, service):
        svc, run = service
        lq = "select x.title from DB.link x"
        uq = r"select \t where {link.title: \t} in db"
        for op, query in (("lorel", lq), ("unql", uq)):
            native = run({"id": 1, "op": op, "query": query})
            via_sql = run({"id": 2, "op": op, "query": query, "engine": "sql"})
            auto = run({"id": 3, "op": op, "query": query, "engine": "auto"})
            assert via_sql["result"] == native["result"] == auto["result"], op
            assert via_sql["engine"] == "sql" and "engine" not in auto

    def test_bad_engine_is_a_protocol_error(self, service):
        svc, run = service
        out = run({"id": 1, "op": "rpq", "query": "x", "engine": "turbo"})
        assert out["status"] == "error"
        assert out["error_type"] == "ProtocolError"

    def test_profiled_request_stays_native(self, service):
        svc, run = service
        out = run(
            {"id": 1, "op": "rpq", "query": "link.title", "profile": True,
             "engine": "sql"}
        )
        assert out["status"] == "ok" and "profile" in out
        # the profile describes the native engine, and the response says so
        assert out["engine"] == "native"

    def test_sql_counter_in_stats(self, service):
        svc, run = service
        for engine in ("auto", "sql"):
            run({"id": 1, "op": "lorel", "query": "select x.url from DB.link x",
                 "engine": engine})
        stats = run({"id": 2, "op": "stats"})["result"]["metrics"]
        assert stats["service_sql_answered"] == 1


class TestCliEngine:
    @pytest.fixture()
    def db_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {"Entry": [
                    {"Movie": {"Title": "Casablanca", "Year": 1942}},
                    {"Movie": {"Title": "Vertigo", "Year": 1958}},
                ]}
            )
        )
        return str(path)

    @pytest.fixture()
    def wide_db_file(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps({"A": {f"x{i:04d}": 0 for i in range(560)}})
        )
        return str(path)

    def test_lorel_engines_agree(self, db_file, capsys):
        from repro.cli import main

        args = ["lorel", db_file, "select m.Title from DB.Entry.Movie m"]
        outs = {}
        for engine in ("native", "sql", "auto"):
            assert main(args + ["--engine", engine]) == 0
            outs[engine] = capsys.readouterr().out
        assert outs["native"] == outs["sql"] == outs["auto"]
        assert "Casablanca" in outs["native"]

    def test_query_engines_agree(self, db_file, capsys):
        from repro.cli import main

        args = ["query", db_file, r"select \t where {Entry.Movie.Title: \t} in db"]
        outs = {}
        for engine in ("native", "sql"):
            assert main(args + ["--engine", engine]) == 0
            outs[engine] = capsys.readouterr().out
        assert outs["native"] == outs["sql"]

    def test_auto_runs_the_native_evaluators(self, db_file, capsys, monkeypatch):
        """``--engine auto`` is ``native``, as on the wire: no SQL call."""
        import repro.sqlbackend
        from repro.cli import main

        def refuse(*args, **kwargs):
            raise AssertionError("auto reached the SQL engine")

        monkeypatch.setattr(repro.sqlbackend, "unql_sql", refuse)
        monkeypatch.setattr(repro.sqlbackend, "lorel_sql", refuse)
        for args in (
            ["query", db_file, r"select \t where {Entry.Movie.Title: \t} in db"],
            ["lorel", db_file, "select m.Title from DB.Entry.Movie m"],
        ):
            assert main(args + ["--engine", "native"]) == 0
            native_out = capsys.readouterr().out
            assert main(args + ["--engine", "auto"]) == 0
            assert capsys.readouterr().out == native_out

    def test_explicit_sql_surfaces_refusal(self, wide_db_file, capsys):
        from repro.cli import main

        args = ["lorel", wide_db_file, "select m from DB.A.x% m"]
        assert main(args + ["--engine", "sql"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_auto_falls_back_on_refusal(self, wide_db_file, capsys):
        from repro.cli import main

        args = ["lorel", wide_db_file, "select m from DB.A.x% m"]
        assert main(args + ["--engine", "native"]) == 0
        native_out = capsys.readouterr().out
        assert main(args + ["--engine", "auto"]) == 0
        assert capsys.readouterr().out == native_out
