"""Pinned SQL text: the compiler's emitted plans, snapshot-tested.

Each case compiles one query against one deterministic dataset and
compares the full emitted SQL (plus the bound parameter tuple and the
plan kind) against a ``.sql`` file under ``goldens/``.  The texts are
reviewable artifacts: a change to join ordering, filter pushdown, CTE
shape, or parameter binding shows up as a plain SQL diff in the PR.

When a compiler change is intentional, regenerate and review:

    PYTHONPATH=src python tests/sqlbackend/test_sql_goldens.py --regen
"""

import sys
from pathlib import Path

import pytest

from repro.core.convert import graph_to_oem
from repro.core.frozen import freeze
from repro.datasets import figure1, generate_movies, generate_web
from repro.lorel import parse_lorel
from repro.sqlbackend import SqlBackend, compile_lorel

GOLDEN_DIR = Path(__file__).parent / "goldens"

DATASETS = {
    "figure1": lambda: figure1(),
    "movies30": lambda: generate_movies(30, seed=11),
    "web40": lambda: generate_web(40, seed=7),
}

#: case name -> (dataset key, language, query text).  One case per plan
#: shape: pruned self-join chains, recursive-CTE automata, and the Lorel
#: clause/where compiler's main forms.
CASES = {
    "rpq-chain-fixed": ("figure1", "rpq", "Entry.Movie.Title"),
    "rpq-chain-glob": ("figure1", "rpq", "Entry.%.Title"),
    "rpq-chain-alt": ("figure1", "rpq", "Entry.(Movie|`TV Show`).Title"),
    "rpq-automaton-star": ("web40", "rpq", "link*.title"),
    "rpq-automaton-negation": ("figure1", "rpq", "Entry.Movie.(!Movie)*"),
    "lorel-plain": ("figure1", "lorel", "select m.Title from DB.Entry.Movie m"),
    "lorel-compare": (
        "movies30",
        "lorel",
        "select m.Title from DB.Entry.Movie m where m.Year < 1960",
    ),
    "lorel-two-clauses": (
        "movies30",
        "lorel",
        "select m.Title, c.Actors from DB.Entry.Movie m, m.Cast c",
    ),
    "lorel-exists-like": (
        "figure1",
        "lorel",
        'select m.Title from DB.Entry.Movie m '
        'where exists m.Cast and m.Title like "Casa%"',
    ),
    "lorel-closure-clause": (
        "web40",
        "lorel",
        "select x.title from DB.(link)* x",
    ),
}


def compute_text(name: str) -> str:
    dataset_key, language, query = CASES[name]
    graph = DATASETS[dataset_key]()
    if language == "rpq":
        plan = SqlBackend(freeze(graph)).compile(query)
    else:
        plan = compile_lorel(parse_lorel(query), graph_to_oem(graph))
    return (
        f"-- case: {name}\n-- dataset: {dataset_key}\n-- query: {query}\n"
        f"-- kind: {plan.kind}\n-- params: {plan.params!r}\n{plan.sql}\n"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_sql_matches_golden(name):
    path = GOLDEN_DIR / f"{name}.sql"
    assert path.exists(), (
        f"no golden for {name}; regenerate with "
        f"PYTHONPATH=src python tests/sqlbackend/test_sql_goldens.py --regen"
    )
    assert compute_text(name) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_compilation_deterministic(name):
    assert compute_text(name) == compute_text(name)


def test_no_stale_goldens():
    assert {p.stem for p in GOLDEN_DIR.glob("*.sql")} == set(CASES)


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.sql"):
        stale.unlink()
    for name in sorted(CASES):
        (GOLDEN_DIR / f"{name}.sql").write_text(
            compute_text(name), encoding="utf-8"
        )
        print(f"wrote goldens/{name}.sql")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
