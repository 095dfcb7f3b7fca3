"""Golden-profile regression suite: exact operation counts, pinned.

Each case hands one query over one bundled dataset a fresh
:class:`~repro.obs.QueryProfile` and compares its complete dict against
``golden_profiles.json``.  The counts are algorithmic observables
(product configurations, DFA states, index hits), so a change that
silently alters how much work an evaluator does -- even one that keeps
answers identical and timings inside the noise band -- fails here with
an exact diff.

When an *intentional* algorithm change shifts the counts, regenerate:

    PYTHONPATH=src python tests/obs/test_golden_profiles.py --regen

and review the JSON diff like any other behavioral change.  Every case
also runs twice and asserts the two profiles agree, so a
nondeterministic evaluator cannot hide behind a lucky regeneration.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.automata.product import rpq_nodes
from repro.browse import (
    find_attribute_names,
    find_integers_greater_than,
    find_value,
)
from repro.core.convert import graph_to_oem
from repro.datasets import figure1, generate_acedb, generate_movies, generate_web
from repro.distributed import distributed_rpq, partition_graph
from repro.lorel import evaluate_lorel, parse_lorel
from repro.obs import QueryProfile
from repro.unql import evaluate_query, parse_query

GOLDEN_PATH = Path(__file__).parent / "golden_profiles.json"

DATASETS = {
    "figure1": lambda: figure1(),
    "movies30": lambda: generate_movies(30, seed=11),
    "web40": lambda: generate_web(40, seed=7),
    "acedb20": lambda: generate_acedb(20, seed=3),
}


def _rpq(pattern):
    def run(graph):
        profile = QueryProfile()
        rpq_nodes(graph, pattern, profile=profile)
        return profile

    return run


def _unql(text):
    def run(graph):
        profile = QueryProfile(query=text)
        evaluate_query(parse_query(text), {"db": graph, "DB": graph}, profile=profile)
        return profile

    return run


def _lorel(text):
    def run(graph):
        profile = QueryProfile(query=text)
        evaluate_lorel(parse_lorel(text), graph_to_oem(graph), profile=profile)
        return profile

    return run


def _find_value(value):
    def run(graph):
        profile = QueryProfile()
        find_value(graph, value, profile=profile)
        return profile

    return run


def _find_ints(bound):
    def run(graph):
        profile = QueryProfile()
        find_integers_greater_than(graph, bound, profile=profile)
        return profile

    return run


def _find_attrs(pattern):
    def run(graph):
        profile = QueryProfile()
        find_attribute_names(graph, pattern, profile=profile)
        return profile

    return run


def _distributed(pattern, sites=3):
    def run(graph):
        dist = partition_graph(graph, sites, strategy="bfs")
        profile = QueryProfile()
        distributed_rpq(dist, pattern, profile=profile)
        return profile

    return run


#: case id -> (dataset key, profile producer).  Every evaluator family
#: appears against every dataset family at least once.
CASES = {
    # figure 1 of the paper: the canonical heterogeneous movie database
    "figure1/rpq-title": ("figure1", _rpq("Entry.Movie.Title")),
    "figure1/rpq-allen": ("figure1", _rpq('Entry.Movie.(!Movie)*."Allen"')),
    "figure1/unql-title": (
        "figure1",
        _unql(r"select \t where {Entry.Movie.Title: \t} in db"),
    ),
    "figure1/lorel-title": ("figure1", _lorel("select t from DB.Entry.Movie.Title t")),
    "figure1/find-casablanca": ("figure1", _find_value("Casablanca")),
    "figure1/find-ints-1": ("figure1", _find_ints(1)),
    "figure1/find-attrs-title": ("figure1", _find_attrs("Title")),
    "figure1/dist-title": ("figure1", _distributed("Entry.Movie.Title")),
    # the scaled pseudo-IMDB
    "movies30/rpq-title": ("movies30", _rpq("Entry.Movie.Title")),
    "movies30/rpq-references": ("movies30", _rpq("Entry._.References._.Title")),
    "movies30/unql-cast": (
        "movies30",
        _unql(r"select \n where {Entry.Movie.Cast: \n} in db"),
    ),
    "movies30/lorel-title": ("movies30", _lorel("select t from DB.Entry.Movie.Title t")),
    "movies30/dist-title": ("movies30", _distributed("Entry.Movie.Title", sites=4)),
    # the cyclic web graph: closure queries must terminate and count stably
    "web40/rpq-keywords": ("web40", _rpq("link*.keyword")),
    "web40/find-attrs-keyword": ("web40", _find_attrs("keyword")),
    "web40/dist-keywords": ("web40", _distributed("link*.keyword", sites=4)),
    # the loose-schema biological database
    "acedb20/rpq-phenotype": ("acedb20", _rpq("Locus.Phenotype")),
    "acedb20/rpq-clones": ("acedb20", _rpq("Locus.Clone.Contains*.Clone_name")),
    "acedb20/lorel-names": ("acedb20", _lorel("select n from DB.Locus.Locus_name n")),
}


def compute_profile(case_id: str) -> dict:
    dataset_key, run = CASES[case_id]
    return run(DATASETS[dataset_key]()).as_dict()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_profile_matches_golden(case_id):
    golden = load_golden()
    assert case_id in golden, (
        f"no golden entry for {case_id}; regenerate with "
        f"PYTHONPATH=src python {Path(__file__).relative_to(Path.cwd())} --regen"
    )
    assert compute_profile(case_id) == golden[case_id]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_profile_is_deterministic(case_id):
    assert compute_profile(case_id) == compute_profile(case_id)


#: Cases whose runner accepts either graph layout directly (the RPQ and
#: browse families; UnQL/Lorel/distributed go through their own wrappers).
FROZEN_CASES = sorted(
    case_id for case_id in CASES if "/rpq-" in case_id or "/find-" in case_id
)


@pytest.mark.parametrize("case_id", FROZEN_CASES)
def test_frozen_kernel_matches_golden(case_id):
    """The label-pruned frozen kernel reports byte-identical counts.

    Pruning may only skip edges a full scan would have stepped into the
    dead state, so the pinned plain-graph profiles double as the frozen
    kernel's goldens -- same file, no regeneration allowed.
    """
    dataset_key, run = CASES[case_id]
    frozen_profile = run(DATASETS[dataset_key]().freeze()).as_dict()
    assert frozen_profile == load_golden()[case_id]


def test_golden_file_has_no_stale_entries():
    assert set(load_golden()) == set(CASES)


def test_every_golden_profile_reports_work():
    """A profile that counted nothing means the wiring silently broke."""
    for case_id, profile in load_golden().items():
        assert profile["nodes_visited"] > 0, f"{case_id} visited no nodes"
        assert profile["complete"] is True, f"{case_id} is unexpectedly partial"


def regenerate() -> None:
    payload = {case_id: compute_profile(case_id) for case_id in sorted(CASES)}
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(payload)} golden profiles to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
