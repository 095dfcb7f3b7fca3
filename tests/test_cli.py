"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import load_database, main
from repro.datasets import figure1
from repro.storage import dumps


@pytest.fixture()
def json_db(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(
        json.dumps(
            {
                "Entry": [
                    {"Movie": {"Title": "Casablanca", "Year": 1942}},
                    {"Movie": {"Title": "Vertigo", "Year": 1958}},
                ]
            }
        )
    )
    return str(path)


@pytest.fixture()
def binary_db(tmp_path):
    path = tmp_path / "fig1.ssd"
    path.write_bytes(dumps(figure1()))
    return str(path)


class TestLoadDatabase:
    def test_json(self, json_db):
        g = load_database(json_db)
        assert g.num_edges > 0

    def test_binary(self, binary_db):
        g = load_database(binary_db)
        assert g.has_cycle()


class TestCommands:
    def test_render(self, json_db, capsys):
        assert main(["render", json_db]) == 0
        out = capsys.readouterr().out
        assert "Casablanca" in out

    def test_dot(self, json_db, capsys):
        assert main(["dot", json_db]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "Movie" in out

    def test_query(self, json_db, capsys):
        code = main(
            ["query", json_db, r"select {Title: \t} where {Entry.Movie.Title: \t} in db"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Casablanca" in out and "Vertigo" in out

    def test_lorel(self, json_db, capsys):
        code = main(
            ["lorel", json_db, "select m.Title from DB.Entry.Movie m where m.Year < 1950"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Casablanca" in out and "Vertigo" not in out

    def test_datalog(self, json_db, tmp_path, capsys):
        program = tmp_path / "reach.dl"
        program.write_text(
            "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, L, Y).\n"
        )
        assert main(["datalog", json_db, str(program), "reach"]) == 0
        out = capsys.readouterr().out
        assert out.count("(") >= 5

    def test_find_hit_and_miss(self, json_db, capsys):
        assert main(["find", json_db, "Casablanca"]) == 0
        assert "Title" in capsys.readouterr().out
        assert main(["find", json_db, "Nothing Here"]) == 1

    def test_find_parses_numbers(self, json_db, capsys):
        assert main(["find", json_db, "1942"]) == 0
        assert "Year" in capsys.readouterr().out

    def test_paths(self, json_db, capsys):
        assert main(["paths", json_db, "3"]) == 0
        out = capsys.readouterr().out
        assert "`Entry`.`Movie`.`Title`" in out

    def test_schema(self, json_db, capsys):
        assert main(["schema", json_db]) == 0
        out = capsys.readouterr().out
        assert "inferred schema" in out
        assert "<int>" in out  # years generalized to a type test

    def test_stats(self, binary_db, capsys):
        assert main(["stats", binary_db]) == 0
        out = capsys.readouterr().out
        assert "cyclic: True" in out
        assert "labels[symbol]" in out

    def test_stats_json_carries_three_metric_sections(self, binary_db, capsys):
        assert main(["stats", binary_db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metric_sections = set(payload) - {"nodes", "edges", "cyclic", "labels", "planner", "indexes"}
        assert metric_sections == {"storage", "plan_cache", "service"}

    def test_stats_json_counts_coreach_walks(self, json_db, capsys):
        assert main(["stats", json_db, "--json"]) == 0
        before = json.loads(capsys.readouterr().out)["plan_cache"]
        assert main(["profile", json_db, '_*."Casablanca"']) == 0
        capsys.readouterr()
        assert main(["stats", json_db, "--json"]) == 0
        after = json.loads(capsys.readouterr().out)["plan_cache"]
        assert after["coreach_walks"] == before["coreach_walks"] + 1
        assert after["coreach_nodes"] > before["coreach_nodes"]

    def test_error_paths_are_clean(self, json_db, capsys):
        assert main(["query", json_db, "select nonsense ((("]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["render", "/nonexistent/file.json"]) == 2

    def test_module_entry_point(self, json_db):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "stats", json_db],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "nodes:" in proc.stdout


class TestTraverseCommand:
    def test_traverse_replace(self, json_db, capsys):
        code = main(
            ["traverse", json_db, "traverse db replace Movie => Film"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Film" in out and "Movie" not in out

    def test_traverse_error(self, json_db, capsys):
        assert main(["traverse", json_db, "traverse db explode x"]) == 2
        assert "error:" in capsys.readouterr().err
