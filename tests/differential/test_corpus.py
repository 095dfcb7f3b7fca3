"""Replay the pinned differential corpus on both engines.

``corpus.json`` is the durable half of the differential harness: where
the hypothesis properties explore fresh inputs every run, the corpus
replays exact cases forever -- representative queries over the bundled
datasets plus every shrunk counterexample a property run ever found
(each kept with a ``note`` naming the bug it caught).  A corpus case
that stops agreeing is a regression, full stop.
"""

import json
from pathlib import Path

import pytest

from repro.automata.product import rpq_nodes
from repro.core.convert import graph_to_oem
from repro.core.frozen import freeze
from repro.core.oem import OemDatabase
from repro.datasets import figure1, generate_acedb, generate_movies, generate_web
from repro.lorel import lorel, lorel_rows
from repro.sqlbackend import NotCompilable, SqlBackend, lorel_sql, unql_sql
from repro.unql import evaluate_query, parse_query

from .test_differential import canonical

CORPUS = json.loads((Path(__file__).parent / "corpus.json").read_text())

#: Same generator pins as the golden-profile suite: byte-deterministic.
DATASETS = {
    "figure1": lambda: figure1(),
    "movies30": lambda: generate_movies(30, seed=11),
    "web40": lambda: generate_web(40, seed=7),
    "acedb20": lambda: generate_acedb(20, seed=3),
}

_CASE_IDS = [
    f"{case['engine']}-{i}-{case['dataset']}" for i, case in enumerate(CORPUS["cases"])
]


def _graph_of(case):
    if case["dataset"] == "obj":
        return None
    return DATASETS[case["dataset"]]()


@pytest.mark.parametrize("case", CORPUS["cases"], ids=_CASE_IDS)
def test_corpus_case(case):
    engine, query = case["engine"], case["query"]
    if engine == "rpq":
        g = _graph_of(case)
        fg = freeze(g)
        native = rpq_nodes(fg, query)
        try:
            via_sql = SqlBackend(fg).rpq_nodes(query)
        except NotCompilable:
            pytest.fail(f"corpus RPQ case must compile: {query!r}")
        assert via_sql == native
    elif engine == "lorel":
        if case["dataset"] == "obj":
            db = OemDatabase.from_obj(case["obj"])
        else:
            db = graph_to_oem(_graph_of(case))
        native = lorel_rows(lorel(query, db))
        via_sql = lorel_rows(lorel_sql(query, db))
        assert via_sql == native
    else:
        g = _graph_of(case)
        parsed = parse_query(query)
        sources = {"db": g, "DB": g}
        assert canonical(unql_sql(parsed, sources)) == canonical(
            evaluate_query(parsed, sources)
        )
