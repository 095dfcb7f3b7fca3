"""Golden parity: a profiled query through the server IS the library call.

The obs suite pins exact operation counts for the library's profiled
entry points (``tests/obs/test_golden_profiles.py``).  The server must
not perturb them: a client asking for ``"profile": true`` has to get a
:class:`~repro.obs.QueryProfile` *byte-identical* (as canonical JSON)
to what a direct library call produces -- same engine, same counts, no
service-side cache or wrapper leaking into the measurement.  That is
why the server's profiled paths bypass its plan cache.
"""

import pytest

from repro.automata.product import rpq_nodes
from repro.browse import find_value
from repro.core.convert import graph_to_oem
from repro.core.frozen import freeze
from repro.datasets import generate_movies
from repro.lorel import evaluate_lorel, parse_lorel
from repro.obs import QueryProfile
from repro.obs.export import to_json
from repro.service import InProcessHarness, QueryService
from repro.unql import evaluate_query, parse_query


@pytest.fixture()
def graph():
    return generate_movies(15, seed=4)


@pytest.fixture()
def harness(graph):
    h = InProcessHarness(QueryService(graph))
    yield h
    h.close()


def assert_byte_identical(server_profile: dict, library_profile: dict) -> None:
    assert to_json(server_profile) == to_json(library_profile)


def test_rpq_profile_parity(graph, harness) -> None:
    query = "Entry.Movie.Title"
    response = harness.run_one(
        {"id": 1, "op": "rpq", "query": query, "profile": True}
    )
    assert response["status"] == "ok"
    profile = QueryProfile()
    results = rpq_nodes(freeze(graph), query, profile=profile)
    assert response["result"] == sorted(results)
    assert_byte_identical(response["profile"], profile.as_dict())


def test_rpq_profile_parity_unaffected_by_warm_plan_cache(graph, harness) -> None:
    """Unprofiled traffic warms the service plan cache; a later profiled
    run of the same pattern must still report cold-compile counts."""
    query = "Entry.Movie.Title"
    for i in range(3):
        harness.run_one({"id": i, "op": "rpq", "query": query})
    response = harness.run_one(
        {"id": 10, "op": "rpq", "query": query, "profile": True}
    )
    profile = QueryProfile()
    rpq_nodes(freeze(graph), query, profile=profile)
    assert_byte_identical(response["profile"], profile.as_dict())


def test_lorel_profile_parity(graph, harness) -> None:
    query = "select m.Title from DB.Entry.Movie m"
    response = harness.run_one(
        {"id": 1, "op": "lorel", "query": query, "profile": True}
    )
    assert response["status"] == "ok"
    profile = QueryProfile(query=query)
    evaluate_lorel(parse_lorel(query), graph_to_oem(graph), profile=profile)
    assert_byte_identical(response["profile"], profile.as_dict())


def test_unql_profile_parity(graph, harness) -> None:
    query = r"select \t where {Entry: {Movie: {Title: \t}}} in db"
    response = harness.run_one(
        {"id": 1, "op": "unql", "query": query, "profile": True}
    )
    assert response["status"] == "ok"
    profile = QueryProfile(query=query)
    evaluate_query(parse_query(query), {"db": graph, "DB": graph}, profile=profile)
    assert_byte_identical(response["profile"], profile.as_dict())


def test_find_profile_parity(graph, harness) -> None:
    response = harness.run_one(
        {"id": 1, "op": "find", "query": "Title", "profile": True}
    )
    assert response["status"] == "ok"
    profile = QueryProfile()
    find_value(graph, "Title", None, profile=profile)
    assert_byte_identical(response["profile"], profile.as_dict())


def test_profiled_and_plain_answers_agree(graph, harness) -> None:
    query = "Entry.Movie.Title"
    plain = harness.run_one({"id": 1, "op": "rpq", "query": query})
    profiled = harness.run_one(
        {"id": 2, "op": "rpq", "query": query, "profile": True}
    )
    assert plain["result"] == profiled["result"]
